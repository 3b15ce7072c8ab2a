package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	diospyros "diospyros"
	"diospyros/internal/kernel"
	"diospyros/internal/telemetry"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	Name string
	Data string
}

// readSSE consumes a text/event-stream body into parsed events, stopping
// after the terminal "result" event (or EOF).
func readSSE(t *testing.T, r *bufio.Reader) []sseEvent {
	t.Helper()
	var (
		events []sseEvent
		cur    sseEvent
	)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return events
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.Name != "":
			events = append(events, cur)
			if cur.Name == "result" {
				return events
			}
			cur = sseEvent{}
		}
	}
}

func openStream(t *testing.T, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/compile", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestStreamCompile is the SSE acceptance path: a compile opened with
// Accept: text/event-stream streams one iteration event per saturation
// iteration, carrying its rule rows, and ends with a result event carrying
// the compiled artifacts and the same gauges.
func TestStreamCompile(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp := openStream(t, ts.URL, dotprod)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	events := readSSE(t, bufio.NewReader(resp.Body))
	var gauges []telemetry.IterationGauge
	var rows int
	var result *sseEvent
	for i, ev := range events {
		switch ev.Name {
		case "iteration":
			var g telemetry.IterationGauge
			if err := json.Unmarshal([]byte(ev.Data), &g); err != nil {
				t.Fatalf("iteration event not JSON: %v", err)
			}
			if g.Iteration != len(gauges)+1 {
				t.Errorf("iteration event %d carries iteration %d", len(gauges)+1, g.Iteration)
			}
			for _, s := range g.Rules {
				if s.Rule == "" || s.Matches == 0 {
					t.Errorf("iteration %d: incomplete rule row %+v", g.Iteration, s)
				}
			}
			rows += len(g.Rules)
			gauges = append(gauges, g)
		case "result":
			result = &events[i]
		default:
			t.Errorf("unexpected event kind %q", ev.Name)
		}
	}
	if len(gauges) == 0 {
		t.Error("no iteration events streamed")
	}
	if rows == 0 {
		t.Error("iteration events carry no rule rows")
	}
	if result == nil {
		t.Fatal("stream did not end with a result event")
	}

	var final streamResult
	if err := json.Unmarshal([]byte(result.Data), &final); err != nil {
		t.Fatalf("result event not JSON: %v", err)
	}
	if final.Status != http.StatusOK || final.Error != "" {
		t.Fatalf("result status=%d error=%q", final.Status, final.Error)
	}
	if final.C == "" || final.Kernel != "dot4" {
		t.Errorf("result missing artifacts: kernel=%q, %d bytes of C", final.Kernel, len(final.C))
	}
	if final.Trace == nil || len(final.Trace.Iterations) != len(gauges) {
		t.Fatalf("result trace does not carry the %d streamed gauges", len(gauges))
	}
	if last, _ := final.Trace.FinalGauge(); !reflect.DeepEqual(gauges[len(gauges)-1], last) {
		t.Errorf("last iteration event %+v differs from the trace's final gauge %+v",
			gauges[len(gauges)-1], last)
	}
}

// TestStreamCompileError: a failing compile still streams, ending with a
// result event that carries the error and the status the JSON path would
// have returned.
func TestStreamCompileError(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp := openStream(t, ts.URL, "kernel oops(")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (SSE commits to 200 before compiling)", resp.StatusCode)
	}
	events := readSSE(t, bufio.NewReader(resp.Body))
	if len(events) == 0 || events[len(events)-1].Name != "result" {
		t.Fatal("stream did not end with a result event")
	}
	var final streamResult
	if err := json.Unmarshal([]byte(events[len(events)-1].Data), &final); err != nil {
		t.Fatal(err)
	}
	if final.Status != http.StatusBadRequest || final.Error == "" {
		t.Fatalf("want embedded 400 + error, got status=%d error=%q", final.Status, final.Error)
	}
}

// TestCompilePanicAnswers500 is the hostile-input guard: a compile that
// panics answers 500 on both paths instead of ending the process (on the
// SSE path the compile runs on its own goroutine, which nothing else
// recovers), counts once per panic, and leaves the server serving.
func TestCompilePanicAnswers500(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheBytes: -1})
	var calls atomic.Int32
	s.compileFn = func(context.Context, string, diospyros.Options) (*diospyros.Result, error) {
		if calls.Add(1) <= 2 {
			panic("index out of range in a rewrite")
		}
		return &diospyros.Result{Kernel: &kernel.Lifted{Name: "stub"}, Trace: &telemetry.Trace{}}, nil
	}

	resp := openStream(t, ts.URL, dotprod)
	events := readSSE(t, bufio.NewReader(resp.Body))
	resp.Body.Close()
	if len(events) == 0 || events[len(events)-1].Name != "result" {
		t.Fatal("stream did not end with a result event")
	}
	var final streamResult
	if err := json.Unmarshal([]byte(events[len(events)-1].Data), &final); err != nil {
		t.Fatal(err)
	}
	if final.Status != http.StatusInternalServerError || !strings.Contains(final.Error, "internal compiler error") {
		t.Fatalf("SSE result: status=%d error=%q, want 500 internal compiler error", final.Status, final.Error)
	}

	plain, cr := postCompile(t, ts.URL, dotprod, "text/plain")
	if plain.StatusCode != http.StatusInternalServerError || !strings.Contains(cr.Error, "index out of range") {
		t.Fatalf("plain: status=%d error=%q, want 500 naming the panic", plain.StatusCode, cr.Error)
	}
	if m := scrape(t, ts.URL); !strings.Contains(m, "diospyros_serve_internal_errors_total 2\n") {
		t.Errorf("want diospyros_serve_internal_errors_total 2 after two panics")
	}
	if after, cr := postCompile(t, ts.URL, dotprod, "text/plain"); after.StatusCode != http.StatusOK {
		t.Fatalf("request after the panics: status=%d error=%q", after.StatusCode, cr.Error)
	}
}

// TestStreamClientDisconnect: dropping the SSE connection mid-compile
// cancels the compile and lands in the cancellation metrics under the
// "streaming" phase.
func TestStreamClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.compileFn = func(ctx context.Context, src string, opts diospyros.Options) (*diospyros.Result, error) {
		// Compile "runs" until the server propagates the client's
		// disconnect through the request context (10 s = test safety net).
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second):
		}
		return nil, ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/compile", strings.NewReader(dotprod))
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // hang up mid-stream
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		m := scrape(t, ts.URL)
		if strings.Contains(m, `diospyros_serve_cancelled_total{phase="streaming"} 1`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("streaming cancellation not counted:\n%s", m)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamHeartbeat: with a fast heartbeat configured, keep-alive
// comments appear between events while a slow compile runs.
func TestStreamHeartbeat(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, StreamHeartbeat: 5 * time.Millisecond})
	s.compileFn = func(ctx context.Context, src string, opts diospyros.Options) (*diospyros.Result, error) {
		<-release
		return diospyros.CompileSourceContext(ctx, src, opts)
	}

	resp := openStream(t, ts.URL, dotprod)
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)

	sawHeartbeat := false
	go func() {
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			break
		}
		if strings.HasPrefix(line, ": heartbeat") {
			sawHeartbeat = true
		}
		if strings.HasPrefix(line, "event: result") {
			break
		}
	}
	if !sawHeartbeat {
		t.Error("no heartbeat comment while the compile was stalled")
	}
}

// TestStreamWatchdogAbort is TestWatchdogNodeBudgetAbort over SSE: the
// compile loop's watchdog aborts a streamed compile too, which ends with
// one result event carrying the 422, the abort reason and the trace's
// stop reason, and counts once in the aborts counter.
func TestStreamWatchdogAbort(t *testing.T) {
	src, err := os.ReadFile("../../testdata/conv3x5.dios")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Workers:       1,
		WatchdogNodes: 10,
		Options:       diospyros.Options{ExtraRules: diospyros.ACRules(), Timeout: 10 * time.Second},
	})

	resp := openStream(t, ts.URL, string(src))
	events := readSSE(t, bufio.NewReader(resp.Body))
	resp.Body.Close()
	var results []sseEvent
	for _, ev := range events {
		if ev.Name == "result" {
			results = append(results, ev)
		}
	}
	if len(results) != 1 || events[len(events)-1].Name != "result" {
		t.Fatalf("want one result event, last; got %d result events in %d", len(results), len(events))
	}
	var final streamResult
	if err := json.Unmarshal([]byte(results[0].Data), &final); err != nil {
		t.Fatal(err)
	}
	if final.Status != http.StatusUnprocessableEntity || final.Aborted != "node-budget" {
		t.Fatalf("result status=%d aborted=%q, want 422 node-budget", final.Status, final.Aborted)
	}
	if final.Trace == nil || final.Trace.StopReason != "aborted:node-budget" {
		t.Fatalf("trace stop reason = %+v", final.Trace)
	}
	if m := scrape(t, ts.URL); !strings.Contains(m,
		`diospyros_serve_saturation_aborts_total{reason="node-budget"} 1`+"\n") {
		t.Errorf("abort counter missing:\n%s", m)
	}
}
