package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"diospyros/internal/telemetry"
)

func getTraces(t *testing.T, url string) (*http.Response, []map[string]any) {
	t.Helper()
	resp, err := http.Get(url + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("/traces not valid JSON: %v\n%s", err, raw)
	}
	return resp, f.TraceEvents
}

// TestTracesEndpoint is the concurrent-lanes acceptance check: two
// compiles land in the ring, and GET /traces exports them as one Chrome
// trace file with a distinct thread lane per request ID under a single
// server process.
func TestTracesEndpoint(t *testing.T) {
	// The cache is off so the second identical compile really runs and
	// lands in the ring; cached responses deliberately skip it.
	_, ts := newTestServer(t, Config{Workers: 2, CacheBytes: -1})

	var ids []string
	for i := 0; i < 2; i++ {
		resp, cr := postCompile(t, ts.URL, dotprod, "text/plain")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %d failed: %d (%s)", i, resp.StatusCode, cr.Error)
		}
		ids = append(ids, cr.RequestID)
	}

	resp, events := getTraces(t, ts.URL)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if len(events) == 0 {
		t.Fatal("no trace events after two compiles")
	}

	lanes := map[string]float64{} // request id -> tid
	for _, ev := range events {
		if pid := ev["pid"].(float64); pid != 1 {
			t.Errorf("event on pid %v, want shared pid 1: %v", pid, ev)
		}
		if ev["name"] == "process_name" {
			if got := ev["args"].(map[string]any)["name"]; got != "diosserve" {
				t.Errorf("process name = %v", got)
			}
		}
		if ev["name"] == "thread_name" {
			lane := ev["args"].(map[string]any)["name"].(string)
			for _, id := range ids {
				if strings.HasPrefix(lane, id+" ") {
					if _, dup := lanes[id]; dup {
						t.Errorf("request %s has more than one lane", id)
					}
					lanes[id] = ev["tid"].(float64)
				}
			}
		}
	}
	if len(lanes) != 2 || lanes[ids[0]] == lanes[ids[1]] {
		t.Errorf("want one distinct lane per request %v, got %v", ids, lanes)
	}
}

func TestTracesDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceLog: -1})
	resp, _ := getTraces(t, ts.URL)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled /traces status = %d, want 404", resp.StatusCode)
	}
}

// TestTraceRingWraps checks the bounded-retention contract: the ring keeps
// only the newest entries, snapshot ordered oldest first.
func TestTraceRingWraps(t *testing.T) {
	g := newTraceRing(2)
	base := g.epoch
	for i, id := range []string{"r1", "r2", "r3"} {
		g.record(id, "k", base.Add(time.Duration(i)*time.Millisecond), &telemetry.Trace{})
	}
	snap := g.snapshot()
	if len(snap) != 2 || snap[0].RequestID != "r2" || snap[1].RequestID != "r3" {
		t.Fatalf("snapshot = %+v, want [r2 r3]", snap)
	}
	if snap[1].Epoch != 2*time.Millisecond {
		t.Errorf("epoch offset = %v, want 2ms", snap[1].Epoch)
	}
	g.record("r4", "k", base, nil) // nil traces are dropped
	if len(g.snapshot()) != 2 || g.snapshot()[1].RequestID != "r3" {
		t.Error("nil trace was recorded")
	}
}
