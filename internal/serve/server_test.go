package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	diospyros "diospyros"
	"diospyros/internal/kernel"
	"diospyros/internal/telemetry"
)

// dotprod is a small kernel that compiles in well under a second — the
// workhorse of the end-to-end tests.
const dotprod = `
kernel dot4(a[4], b[4]) -> (out[1]) {
    out[0] = 0.0;
    for i in 0..4 {
        out[0] = out[0] + a[i] * b[i];
    }
}
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = telemetry.NewLogger(io.Discard, slog.LevelDebug, false)
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postCompile(t *testing.T, url, body, contentType string) (*http.Response, *CompileResponse) {
	t.Helper()
	resp, err := http.Post(url+"/compile", contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	return resp, &cr
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return string(raw)
}

// TestCompileAndMetricsChangeAcrossRequests is the acceptance-criteria
// core: concurrent compiles succeed, and the /metrics gauges and
// histograms move as requests flow through.
func TestCompileAndMetricsChangeAcrossRequests(t *testing.T) {
	// The cache is off so both identical compiles really run; cache.go's
	// coalescing behavior has its own tests in cache_test.go.
	_, ts := newTestServer(t, Config{Workers: 2, CacheBytes: -1})

	before := scrape(t, ts.URL)
	if strings.Contains(before, "diospyros_serve_requests_total") &&
		strings.Contains(before, `path="/compile"`) {
		t.Fatalf("compile metrics present before any compile:\n%s", before)
	}

	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, cr := postCompile(t, ts.URL, dotprod, "text/plain")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d (%s)", resp.StatusCode, cr.Error)
				return
			}
			if cr.Kernel != "dot4" || !strings.Contains(cr.C, "dot4") {
				t.Errorf("bad response: kernel %q", cr.Kernel)
			}
			if cr.Trace == nil || len(cr.Trace.Stages) == 0 {
				t.Error("response missing trace")
			}
			if cr.Assembly == "" {
				t.Error("response missing assembly")
			}
			ids[i] = cr.RequestID
		}()
	}
	wg.Wait()
	if ids[0] == ids[1] || ids[0] == "" {
		t.Errorf("request IDs not unique: %v", ids)
	}

	after := scrape(t, ts.URL)
	for _, want := range []string{
		`diospyros_serve_requests_total{code="200",path="/compile"} 2`,
		`diospyros_phase_seconds_count{cache="bypass",path="compile.saturate"} 2`,
		`diospyros_phase_seconds_count{cache="bypass",path="compile"} 2`,
		`diospyros_serve_compiles_in_flight 0`,
		`diospyros_saturation_stop_total{reason="saturated"} 2`,
	} {
		if !strings.Contains(after, want+"\n") {
			t.Errorf("missing %q in metrics:\n%s", want, after)
		}
	}
	if !strings.Contains(after, "diospyros_saturation_nodes_max ") {
		t.Error("missing node high-water mark")
	}
}

// TestWatchdogNodeBudgetAbort sets a node budget below the kernel's
// initial e-graph size, so the watchdog must fire on its first sample; the
// abort is asserted in the response trace AND the aborts counter — the
// acceptance criterion.
func TestWatchdogNodeBudgetAbort(t *testing.T) {
	src, err := os.ReadFile("../../testdata/conv3x5.dios")
	if err != nil {
		t.Fatal(err)
	}
	// AC rules make the saturation explode, so the compile reliably
	// outlives the first watchdog sample; the saturation timeout is only a
	// safety net should the watchdog ever fail to fire.
	_, ts := newTestServer(t, Config{
		Workers:       1,
		WatchdogNodes: 10,
		WatchdogPoll:  time.Millisecond,
		Options:       diospyros.Options{ExtraRules: diospyros.ACRules(), Timeout: 10 * time.Second},
	})

	resp, cr := postCompile(t, ts.URL, string(src), "text/plain")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d (%s)", resp.StatusCode, cr.Error)
	}
	if cr.Aborted != "node-budget" {
		t.Fatalf("aborted = %q", cr.Aborted)
	}
	if cr.Trace == nil || cr.Trace.StopReason != "aborted:node-budget" {
		t.Fatalf("trace stop reason = %+v", cr.Trace)
	}
	metrics := scrape(t, ts.URL)
	if !strings.Contains(metrics,
		`diospyros_serve_saturation_aborts_total{reason="node-budget"} 1`+"\n") {
		t.Errorf("abort counter missing:\n%s", metrics)
	}
}

// TestWatchdogHeapBudgetAbort mirrors the node-budget test with a 1-byte
// heap budget: any live process heap exceeds it, so the watchdog must abort
// on its first sample with the heap-budget reason, flowing through the same
// 422 + trace + counter path as node budgets.
func TestWatchdogHeapBudgetAbort(t *testing.T) {
	src, err := os.ReadFile("../../testdata/conv3x5.dios")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Workers:      1,
		WatchdogHeap: 1,
		WatchdogPoll: time.Millisecond,
		Options:      diospyros.Options{ExtraRules: diospyros.ACRules(), Timeout: 10 * time.Second},
	})

	resp, cr := postCompile(t, ts.URL, string(src), "text/plain")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d (%s)", resp.StatusCode, cr.Error)
	}
	if cr.Aborted != "heap-budget" {
		t.Fatalf("aborted = %q", cr.Aborted)
	}
	if cr.Trace == nil || cr.Trace.StopReason != "aborted:heap-budget" {
		t.Fatalf("trace stop reason = %+v", cr.Trace)
	}
	metrics := scrape(t, ts.URL)
	if !strings.Contains(metrics,
		`diospyros_serve_saturation_aborts_total{reason="heap-budget"} 1`+"\n") {
		t.Errorf("abort counter missing:\n%s", metrics)
	}
}

// TestWatchdogLiveGaugesResetAfterCompile pins the gauge lifecycle: the
// watchdog-nodes and egraph-bytes gauges exist after a compile but read 0
// once it finishes — the stop path clears them instead of freezing the last
// mid-compile sample (which used to make an idle server look busy).
func TestWatchdogLiveGaugesResetAfterCompile(t *testing.T) {
	// No budgets: the sampler must run for pure observability.
	_, ts := newTestServer(t, Config{Workers: 1, WatchdogPoll: time.Millisecond})
	resp, cr := postCompile(t, ts.URL, dotprod, "text/plain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, cr.Error)
	}
	metrics := scrape(t, ts.URL)
	for _, want := range []string{
		"diospyros_serve_watchdog_nodes 0",
		"diospyros_serve_egraph_bytes 0",
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("missing idle reset %q in metrics:\n%s", want, metrics)
		}
	}
	// The heap high-water gauge is a max, not a live sample: it must be
	// present and positive after a compile.
	if !strings.Contains(metrics, "diospyros_serve_heap_highwater_bytes ") ||
		strings.Contains(metrics, "diospyros_serve_heap_highwater_bytes 0\n") {
		t.Errorf("heap high-water gauge missing or zero:\n%s", metrics)
	}
}

// blockingCompileFn returns a stub whose first call blocks until its
// context ends (reporting the cancellation cause) and signals entry;
// later calls succeed instantly.
func blockingCompileFn(entered chan<- struct{}) func(context.Context, string, diospyros.Options) (*diospyros.Result, error) {
	var once sync.Once
	return func(ctx context.Context, _ string, _ diospyros.Options) (*diospyros.Result, error) {
		blocked := false
		once.Do(func() {
			blocked = true
			entered <- struct{}{}
			<-ctx.Done()
		})
		if blocked {
			err := context.Cause(ctx)
			if err == nil {
				err = ctx.Err()
			}
			return nil, err
		}
		return &diospyros.Result{
			Kernel: &kernel.Lifted{Name: "stub"},
			Trace:  &telemetry.Trace{},
		}, nil
	}
}

// TestClientCancellationReleasesWorkerSlot is the satellite requirement:
// a cancelled request returns promptly, frees its worker slot for the next
// request, and increments the cancellation counter.
func TestClientCancellationReleasesWorkerSlot(t *testing.T) {
	entered := make(chan struct{}, 1)
	s, ts := newTestServer(t, Config{Workers: 1})
	s.compileFn = blockingCompileFn(entered)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/compile",
		strings.NewReader(dotprod))
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	<-entered // the compile holds the only worker slot
	cancel()  // client gives up

	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("cancelled request returned a response")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request did not return promptly")
	}

	// The slot must be free again: a second compile completes quickly.
	done := make(chan *http.Response, 1)
	go func() {
		resp, cr := postCompile(t, ts.URL, dotprod, "text/plain")
		_ = cr
		done <- resp
	}()
	select {
	case resp := <-done:
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("follow-up compile status = %d", resp.StatusCode)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker slot not released after cancellation")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		metrics := scrape(t, ts.URL)
		if strings.Contains(metrics, `diospyros_serve_cancelled_total{phase="compiling"} 1`+"\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancellation counter missing:\n%s", metrics)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueueFullSheds fills the single worker and the zero-depth queue,
// then expects 503 + Retry-After for the overflow request.
func TestQueueFullSheds(t *testing.T) {
	// The cache is off: with it on, the identical second request would
	// coalesce onto the in-flight compile instead of reaching admission.
	entered := make(chan struct{}, 1)
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1, CacheBytes: -1})
	s.compileFn = blockingCompileFn(entered)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/compile",
		strings.NewReader(dotprod))
	go func() { _, _ = http.DefaultClient.Do(req) }()
	<-entered

	resp, cr := postCompile(t, ts.URL, dotprod, "text/plain")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s)", resp.StatusCode, cr.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if !strings.Contains(scrape(t, ts.URL),
		`diospyros_serve_rejected_total{reason="queue_full"} 1`+"\n") {
		t.Error("rejected counter missing")
	}
	cancel()
}

// TestRequestDeadline asserts the server-imposed deadline maps to 504 and
// the timeout counter.
func TestRequestDeadline(t *testing.T) {
	entered := make(chan struct{}, 1)
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	s.compileFn = blockingCompileFn(entered)

	go func() { <-entered }()
	resp, cr := postCompile(t, ts.URL, dotprod, "text/plain")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s)", resp.StatusCode, cr.Error)
	}
	if !strings.Contains(scrape(t, ts.URL), "diospyros_serve_timeouts_total 1\n") {
		t.Error("timeout counter missing")
	}
}

func TestJSONRequestWithOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body, _ := json.Marshal(CompileRequest{Source: dotprod, NoVector: true, Validate: true})
	resp, cr := postCompile(t, ts.URL, string(body), "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, cr.Error)
	}
	if !cr.Validated {
		t.Error("validate option not honored")
	}
	if strings.Contains(cr.C, "vec_") {
		t.Error("no_vector option not honored (vector intrinsics in output)")
	}
}

// TestMultiTargetCompile is the serve-layer multi-target acceptance test:
// a two-target JSON compile returns both per-target programs, is cached
// under a key distinct from the single-target request for the same source,
// and repeats as a cache hit.
func TestMultiTargetCompile(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	body, _ := json.Marshal(CompileRequest{Source: dotprod, Targets: []string{"fg3lite-4", "fg3lite-8"}})
	resp, cr := postCompile(t, ts.URL, string(body), "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, cr.Error)
	}
	if got := resp.Header.Get("X-Dios-Cache"); got != "miss" {
		t.Fatalf("first multi-target compile X-Dios-Cache = %q, want miss", got)
	}
	if len(cr.Targets) != 2 {
		t.Fatalf("got %d target programs, want 2", len(cr.Targets))
	}
	for i, want := range []struct {
		name  string
		width int
	}{{"fg3lite-4", 4}, {"fg3lite-8", 8}} {
		tp := cr.Targets[i]
		if tp.Target != want.name || tp.Width != want.width {
			t.Errorf("targets[%d] = %s/%d, want %s/%d", i, tp.Target, tp.Width, want.name, want.width)
		}
		if tp.C == "" || tp.Assembly == "" {
			t.Errorf("%s: missing C or assembly", tp.Target)
		}
		if tp.Cycles <= 0 {
			t.Errorf("%s: no simulated cycles", tp.Target)
		}
	}
	// The primary artifacts mirror the first requested target.
	if cr.Assembly != cr.Targets[0].Assembly || cr.C != cr.Targets[0].C {
		t.Error("primary artifacts do not mirror targets[0]")
	}

	// Same request again: a cache hit with the same per-target payload.
	resp2, cr2 := postCompile(t, ts.URL, string(body), "application/json")
	if got := resp2.Header.Get("X-Dios-Cache"); got != "hit" {
		t.Fatalf("repeat multi-target compile X-Dios-Cache = %q, want hit", got)
	}
	if len(cr2.Targets) != 2 || cr2.Targets[1].Assembly != cr.Targets[1].Assembly {
		t.Error("cached multi-target response lost per-target programs")
	}

	// The single-target request for the same source must NOT share the
	// multi-target entry: it compiles fresh (miss) and carries no targets
	// array.
	resp3, cr3 := postCompile(t, ts.URL, dotprod, "text/plain")
	if got := resp3.Header.Get("X-Dios-Cache"); got != "miss" {
		t.Fatalf("single-target compile X-Dios-Cache = %q, want miss", got)
	}
	if len(cr3.Targets) != 0 {
		t.Errorf("single-target response has %d targets, want none", len(cr3.Targets))
	}

	// And the key derivation itself: target set membership and order are
	// part of the content address; naming the default target explicitly
	// is not.
	base := compileCacheKey(dotprod, diospyros.Options{})
	multi := compileCacheKey(dotprod, diospyros.Options{Targets: []string{"fg3lite-4", "fg3lite-8"}})
	if multi == base {
		t.Error("targets did not change the cache key")
	}
	if swapped := compileCacheKey(dotprod, diospyros.Options{Targets: []string{"fg3lite-8", "fg3lite-4"}}); swapped == multi {
		t.Error("target order did not change the cache key")
	}
	if one := compileCacheKey(dotprod, diospyros.Options{Targets: []string{"fg3lite-4"}}); one == multi || one != base {
		t.Error("single default target must key like the empty target list, apart from the multi-target set")
	}
}

// TestBadRequests: malformed requests and kernels are the user's error,
// so each answers 400 and none moves the internal-error counter, which
// counts compiler faults.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	internalErrors := func() string {
		for _, line := range strings.Split(scrape(t, ts.URL), "\n") {
			if strings.HasPrefix(line, "diospyros_serve_internal_errors_total") {
				return line
			}
		}
		return ""
	}
	before := internalErrors()
	for _, c := range []struct {
		body, ct string
	}{
		{"", "text/plain"},                     // empty body
		{"{not json", "application/json"},      // malformed JSON
		{`{"source": ""}`, "application/json"}, // missing source
		{"kernel oops(", "text/plain"},         // parse error
		{"kernel A()->(){}", "text/plain"},     // no outputs to lift
		// A spec over the frontend's node budget, inside its loop budget.
		{"kernel k(a[4]) -> (o[1]) { for i in 0..400000 { o[0] = o[0] + a[i % 4]; } }", "text/plain"},
	} {
		resp, cr := postCompile(t, ts.URL, c.body, c.ct)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d", c.body, resp.StatusCode)
		}
		if cr.Error == "" {
			t.Errorf("body %q: no error message", c.body)
		}
	}
	if after := internalErrors(); after != before {
		t.Errorf("internal-error counter moved: %q -> %q", before, after)
	}
}

func TestProbesAndPprof(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if got := get("/healthz").StatusCode; got != http.StatusOK {
		t.Errorf("healthz = %d", got)
	}
	if got := get("/readyz").StatusCode; got != http.StatusOK {
		t.Errorf("readyz = %d", got)
	}
	s.SetReady(false)
	if got := get("/readyz").StatusCode; got != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d", got)
	}
	if got := get("/healthz").StatusCode; got != http.StatusOK {
		t.Errorf("healthz while draining = %d", got)
	}
	if got := get("/debug/pprof/").StatusCode; got != http.StatusOK {
		t.Errorf("pprof index = %d", got)
	}
	if got := get("/debug/pprof/cmdline").StatusCode; got != http.StatusOK {
		t.Errorf("pprof cmdline = %d", got)
	}
}

// TestRequestIDInLogs ties the per-request ID to the stage-level log
// lines — the structured-logging acceptance point.
func TestRequestIDInLogs(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	logger := telemetry.NewLogger(lockedWriter{&mu, &buf}, slog.LevelDebug, true)
	_, ts := newTestServer(t, Config{Workers: 1, Logger: logger})

	resp, cr := postCompile(t, ts.URL, dotprod, "text/plain")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if cr.RequestID == "" || resp.Header.Get("X-Request-Id") != cr.RequestID {
		t.Fatalf("request ID mismatch: body %q, header %q",
			cr.RequestID, resp.Header.Get("X-Request-Id"))
	}

	mu.Lock()
	logs := buf.String()
	mu.Unlock()
	var stageLines, taggedLines int
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %q", line)
		}
		if rec["msg"] == "stage complete" {
			stageLines++
			if rec["request_id"] == cr.RequestID {
				taggedLines++
			}
		}
	}
	if stageLines < 4 {
		t.Errorf("only %d stage log lines:\n%s", stageLines, logs)
	}
	if taggedLines != stageLines {
		t.Errorf("%d/%d stage lines carry the request ID", taggedLines, stageLines)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestErrorClassification(t *testing.T) {
	s := New(Config{Workers: 1})
	s.compileFn = func(ctx context.Context, _ string, _ diospyros.Options) (*diospyros.Result, error) {
		return nil, errors.New("boom")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, cr := postCompile(t, ts.URL, dotprod, "text/plain")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(cr.Error, "boom") {
		t.Fatalf("status = %d, err = %q", resp.StatusCode, cr.Error)
	}
}
