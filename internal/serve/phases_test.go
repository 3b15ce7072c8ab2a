package serve

import (
	"bufio"
	"context"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"diospyros/internal/telemetry"
)

// timingPattern matches the Server-Timing-style header value: entries of
// the phase path with millisecond durations at microsecond resolution,
// e.g. "queue;dur=0.012, cache;dur=0.004, compile;dur=412.331, ...".
var timingPattern = regexp.MustCompile(
	`^[a-z]+(\.[a-z]+)*;dur=\d+\.\d{3}(, [a-z]+(\.[a-z]+)*;dur=\d+\.\d{3})*$`)

// serverTiming checks a reply's X-Dios-Server-Timing header and returns
// its phases by path plus the top-level paths in header order.
func serverTiming(t *testing.T, resp *http.Response) (map[string]time.Duration, []string) {
	t.Helper()
	h := resp.Header.Get("X-Dios-Server-Timing")
	if !timingPattern.MatchString(h) {
		t.Fatalf("X-Dios-Server-Timing = %q, want phase;dur=<ms> entries", h)
	}
	byPath := map[string]time.Duration{}
	var top []string
	for _, p := range telemetry.ParseServerTiming(h) {
		byPath[p.Path] = p.Duration
		if !strings.Contains(p.Path, ".") {
			top = append(top, p.Path)
		}
	}
	return byPath, top
}

// TestPhaseBreakdownOnCompile is the serve-side acceptance check: a plain
// compile carries its whole phase path in the X-Dios-Server-Timing header
// — the compile expanded into stages and saturation-loop steps — and the
// same paths land in diospyros_phase_seconds on /metrics.
func TestPhaseBreakdownOnCompile(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheBytes: -1})

	resp, cr := postCompile(t, ts.URL, dotprod, "text/plain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, cr.Error)
	}
	phases, top := serverTiming(t, resp)
	// The cache is off, so the request never consulted it.
	if want := []string{"queue", "compile", "serialize"}; !slices.Equal(top, want) {
		t.Errorf("top-level phases %v, want %v", top, want)
	}
	// The compile phase of a real (uncached) compile is the dominant span.
	if phases["compile"] <= 0 {
		t.Errorf("compile phase %v, want > 0", phases["compile"])
	}
	for _, path := range []string{"compile.lift", "compile.saturate", "compile.saturate.match", "compile.saturate.rebuild"} {
		if _, ok := phases[path]; !ok {
			t.Errorf("header lacks %s: %v", path, phases)
		}
	}

	metrics := scrape(t, ts.URL)
	for _, want := range []string{
		`diospyros_phase_seconds_count{cache="bypass",path="queue"} 1`,
		`diospyros_phase_seconds_count{cache="bypass",path="compile"} 1`,
		`diospyros_phase_seconds_count{cache="bypass",path="compile.saturate.rebuild"} 1`,
		`diospyros_phase_seconds_count{cache="bypass",path="serialize"} 1`,
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("missing %q in metrics:\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, `path="cache"`) {
		t.Error("a bypass request observed a cache phase")
	}
}

// TestPhaseCacheOutcomeLabels pins the cache label of
// diospyros_phase_seconds: the compile latency is split by cache outcome,
// so sub-millisecond cache hits stop masquerading as implausibly fast
// compiles, and a hit reports only the four top-level phases.
func TestPhaseCacheOutcomeLabels(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// First compile: a miss that runs the pipeline.
	resp1, _ := postCompile(t, ts.URL, dotprod, "text/plain")
	if got := resp1.Header.Get("X-Dios-Cache"); got != "miss" {
		t.Fatalf("first compile X-Dios-Cache = %q", got)
	}
	if phases, _ := serverTiming(t, resp1); phases["compile.saturate.match"] <= 0 {
		t.Errorf("miss lacks compile.saturate.match: %v", phases)
	}
	// Second compile: a hit whose "compile" phase is the cache lookup.
	resp2, _ := postCompile(t, ts.URL, dotprod, "text/plain")
	if got := resp2.Header.Get("X-Dios-Cache"); got != "hit" {
		t.Fatalf("second compile X-Dios-Cache = %q", got)
	}
	phases, top := serverTiming(t, resp2)
	if want := []string{"queue", "cache", "compile", "serialize"}; !slices.Equal(top, want) || len(phases) != len(want) {
		t.Errorf("cache hit phases %v, want exactly %v", phases, want)
	}
	if h := resp2.Header.Get("X-Dios-Server-Timing"); !strings.HasPrefix(h, "queue;dur=0.000, ") {
		t.Errorf("cache hit X-Dios-Server-Timing = %q, want queue;dur=0.000 (hits skip admission)", h)
	}

	metrics := scrape(t, ts.URL)
	for _, want := range []string{
		`diospyros_phase_seconds_count{cache="miss",path="compile"} 1`,
		`diospyros_phase_seconds_count{cache="hit",path="compile"} 1`,
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("missing %q in metrics:\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, `cache="bypass"`) {
		t.Error("cache-mediated compiles must not count as bypass")
	}
}

// TestPhaseQueueWaitMeasuredWhenQueued parks a request in the admission
// queue behind a blocked worker and asserts the recorded queue wait is the
// real wait, not zero.
func TestPhaseQueueWaitMeasuredWhenQueued(t *testing.T) {
	entered := make(chan struct{}, 1)
	s, ts := newTestServer(t, Config{Workers: 1, CacheBytes: -1})
	s.compileFn = blockingCompileFn(entered)

	// Occupy the only worker slot with a compile that blocks until its
	// request is cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/compile",
		strings.NewReader(dotprod))
	go func() { _, _ = http.DefaultClient.Do(req) }()
	<-entered

	// This request queues behind it (the cache is off, so the identical
	// source cannot coalesce onto the in-flight compile).
	done := make(chan *http.Response, 1)
	go func() {
		resp, _ := postCompile(t, ts.URL, dotprod, "text/plain")
		done <- resp
	}()

	// Let it genuinely wait, then free the worker; the stub's later calls
	// complete instantly, so all remaining latency is queue wait.
	time.Sleep(120 * time.Millisecond)
	cancel()

	resp := <-done
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queued request status = %d", resp.StatusCode)
	}
	phases, _ := serverTiming(t, resp)
	if qw, ok := phases["queue"]; !ok || qw < 50*time.Millisecond {
		t.Errorf("queued request reported %v queue wait (present %v), want >= 50ms", qw, ok)
	}
}

// TestQueueWaitHeaderOnShed asserts the shed path carries its queue wait
// in X-Dios-Server-Timing too: a 503 that can show its wait is
// explainable from outside. A shed never compiles, so it reports no
// compile phase.
func TestQueueWaitHeaderOnShed(t *testing.T) {
	entered := make(chan struct{}, 1)
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1, CacheBytes: -1})
	s.compileFn = blockingCompileFn(entered)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/compile",
		strings.NewReader(dotprod))
	go func() { _, _ = http.DefaultClient.Do(req) }()
	<-entered

	resp, _ := postCompile(t, ts.URL, dotprod, "text/plain")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if phases, top := serverTiming(t, resp); !slices.Equal(top, []string{"queue"}) || len(phases) != 1 {
		t.Errorf("shed reply phases %v, want queue only", phases)
	}
	if !strings.Contains(scrape(t, ts.URL), `diospyros_phase_seconds_count{cache="bypass",path="queue"} 1`+"\n") {
		t.Error("shed request missing from the queue histogram")
	}
}

// TestOneCountPerRequest sends one cache hit, one miss, one shed and one
// SSE compile and asserts each lands exactly once in the phase family:
// four queue samples, three compile samples (the shed never compiles),
// and a parseable X-Dios-Server-Timing with a queue entry on every reply.
func TestOneCountPerRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	var replies []*http.Response

	miss, _ := postCompile(t, ts.URL, dotprod, "text/plain")
	hit, _ := postCompile(t, ts.URL, dotprod, "text/plain")
	if miss.Header.Get("X-Dios-Cache") != "miss" || hit.Header.Get("X-Dios-Cache") != "hit" {
		t.Fatalf("X-Dios-Cache = %q then %q, want miss then hit",
			miss.Header.Get("X-Dios-Cache"), hit.Header.Get("X-Dios-Cache"))
	}
	replies = append(replies, miss, hit)

	s.slots <- struct{}{} // hold the only worker slot
	shed, _ := postCompile(t, ts.URL, dotprod+"// salted\n", "text/plain")
	<-s.slots
	if shed.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", shed.StatusCode)
	}
	replies = append(replies, shed)

	stream := openStream(t, ts.URL, dotprod)
	events := readSSE(t, bufio.NewReader(stream.Body))
	stream.Body.Close()
	if len(events) == 0 || events[len(events)-1].Name != "result" {
		t.Fatalf("stream ended without a result event: %v", events)
	}
	replies = append(replies, stream)

	for i, resp := range replies {
		if phases, _ := serverTiming(t, resp); len(phases) == 0 {
			t.Errorf("reply %d: no phases", i)
		} else if _, ok := phases["queue"]; !ok {
			t.Errorf("reply %d: no queue entry in %v", i, phases)
		}
	}

	counts := map[string]float64{}
	for _, line := range strings.Split(scrape(t, ts.URL), "\n") {
		rest, ok := strings.CutPrefix(line, "diospyros_phase_seconds_count{")
		if !ok {
			continue
		}
		labels, value, _ := strings.Cut(rest, "} ")
		_, path, _ := strings.Cut(labels, `path="`)
		n, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("bad count line %q", line)
		}
		counts[strings.TrimSuffix(path, `"`)] += n
	}
	if counts["queue"] != 4 || counts["compile"] != 3 {
		t.Errorf("phase counts queue=%v compile=%v, want 4 and 3 (all: %v)",
			counts["queue"], counts["compile"], counts)
	}
}

// TestBuildInfoGauge asserts the build-identity gauge is on /metrics from
// boot with its full label set.
func TestBuildInfoGauge(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	metrics := scrape(t, ts.URL)
	if !strings.Contains(metrics, "diospyros_build_info{") {
		t.Fatalf("diospyros_build_info missing:\n%s", metrics)
	}
	line := ""
	for _, l := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(l, "diospyros_build_info{") {
			line = l
		}
	}
	for _, label := range []string{"version=", "revision=", "goversion=", "targets="} {
		if !strings.Contains(line, label) {
			t.Errorf("build info line %q missing %s label", line, label)
		}
	}
	if !strings.HasSuffix(line, " 1") {
		t.Errorf("build info gauge %q should read 1", line)
	}
}
