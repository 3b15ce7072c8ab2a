package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diospyros/internal/bench"
	"diospyros/internal/telemetry"
)

func TestHistQuantiles(t *testing.T) {
	var h Hist
	// 1..1000 ms uniformly: quantiles are known to ~3% bucket error.
	for ms := 1; ms <= 1000; ms++ {
		h.Record(time.Duration(ms) * time.Millisecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Millisecond},
		{0.90, 900 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	} {
		got := h.Quantile(c.q)
		if ratio := float64(got) / float64(c.want); ratio < 0.95 || ratio > 1.05 {
			t.Errorf("q%.2f = %v, want %v ±5%%", c.q, got, c.want)
		}
	}
	if h.Max() != 1000*time.Millisecond {
		t.Errorf("max = %v", h.Max())
	}
	if mean := h.Mean(); mean < 480*time.Millisecond || mean > 520*time.Millisecond {
		t.Errorf("mean = %v, want ~500ms", mean)
	}
}

func TestHistMergeMatchesCombinedRecording(t *testing.T) {
	// Recording into windows and merging must equal recording everything
	// into one histogram — the property finalize depends on.
	rng := rand.New(rand.NewSource(7))
	var whole, a, b Hist
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Intn(2_000_000)) * time.Microsecond
		whole.Record(d)
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() {
		t.Fatalf("merged count %d != %d", a.Count(), whole.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q%g: merged %v != whole %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}
	if a.Max() != whole.Max() {
		t.Errorf("merged max %v != %v", a.Max(), whole.Max())
	}
}

func TestHistBucketError(t *testing.T) {
	// Every representable value must round-trip within the log-linear
	// design error (1/32 of its magnitude).
	for _, us := range []uint64{1, 31, 32, 33, 100, 999, 1023, 1024, 5_000_000, 1 << 35} {
		mid := histValue(histIndex(us))
		if diff := float64(mid) - float64(us); diff > float64(us)/16 || -diff > float64(us)/16 {
			t.Errorf("us=%d lands at %d (err %.1f%%)", us, mid, 100*diff/float64(us))
		}
	}
}

// stubServe imitates diosserve's /compile surface: statuses, cache and
// phase headers, controllable per request by kernel name.
func stubServe(t *testing.T) *httptest.Server {
	t.Helper()
	var n atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/compile" {
			http.NotFound(w, r)
			return
		}
		i := n.Add(1)
		switch {
		case i%10 == 0: // every 10th request is shed
			w.Header().Set("Retry-After", "1")
			w.Header().Set("X-Dios-Server-Timing", "queue;dur=0.100, cache;dur=0.020")
			w.WriteHeader(http.StatusServiceUnavailable)
		case i%10 == 5: // and one in ten is a cache hit
			w.Header().Set("X-Dios-Cache", "hit")
			w.Header().Set("X-Dios-Server-Timing",
				"queue;dur=0.000, cache;dur=0.050, compile;dur=0.050, serialize;dur=0.200")
			fmt.Fprintln(w, "{}")
		default:
			w.Header().Set("X-Dios-Cache", "miss")
			w.Header().Set("X-Dios-Server-Timing",
				"queue;dur=0.100, cache;dur=0.020, compile;dur=5.000, compile.saturate;dur=4.000, "+
					"compile.saturate.match;dur=3.000, compile.extract;dur=0.500, serialize;dur=0.300")
			fmt.Fprintln(w, "{}")
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRunClosedLoopAgainstStub drives the closed loop at a deterministic
// stub and checks the collector's whole accounting: outcome counts, cache
// ratio, phase folding, per-kernel split, and the time series.
func TestRunClosedLoopAgainstStub(t *testing.T) {
	ts := stubServe(t)
	res, err := Run(context.Background(), Config{
		URLs:        []string{ts.URL},
		Kernels:     []Kernel{{Name: "a", Source: "ka"}, {Name: "b", Source: "kb"}},
		Concurrency: 4,
		Duration:    600 * time.Millisecond,
		Window:      100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != SoakSchema {
		t.Errorf("schema = %q", res.Schema)
	}
	if res.Requests < 50 {
		t.Fatalf("only %d requests against an instant stub", res.Requests)
	}
	if res.Requests != res.OK+res.Sheds+res.Timeouts+res.Aborts+res.Errors {
		t.Errorf("outcome counts don't sum: %+v", res)
	}
	if res.Sheds == 0 || res.ShedRate == 0 {
		t.Error("stub sheds every 10th request; none recorded")
	}
	if res.CacheHits == 0 || res.CacheMisses == 0 {
		t.Errorf("cache outcomes not folded: hits=%d misses=%d", res.CacheHits, res.CacheMisses)
	}
	wantRatio := float64(res.CacheHits) / float64(res.CacheHits+res.CacheMisses)
	if diff := res.CacheHitRatio - wantRatio; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("hit ratio %v, want %v", res.CacheHitRatio, wantRatio)
	}
	if res.Latency.P50 <= 0 || res.Latency.P99 < res.Latency.P50 {
		t.Errorf("degenerate latency summary: %+v", res.Latency)
	}
	if res.ThroughputRPS <= 0 {
		t.Error("no throughput")
	}
	// Hits (four entries) and misses (with compile.* children) merge into
	// one list in header order.
	wantOrder := []string{"queue", "cache", "compile", "compile.saturate",
		"compile.saturate.match", "compile.extract", "serialize"}
	if !slices.Equal(res.PhaseOrder, wantOrder) {
		t.Errorf("phase order %v, want %v", res.PhaseOrder, wantOrder)
	}
	for _, phase := range wantOrder {
		if _, ok := res.Phases[phase]; !ok {
			t.Errorf("phase %q missing from server-timing fold: %v", phase, res.Phases)
		}
	}
	// The stub reports 5 ms compile p50 for misses; the fold must be in
	// that region, not in seconds or microseconds.
	if p := res.Phases["compile"]; p.P50 < 1 || p.P50 > 10 {
		t.Errorf("compile phase p50 %.3f ms, want ~5", p.P50)
	}
	if len(res.PerKernel) != 2 {
		t.Fatalf("per-kernel rows = %d, want 2", len(res.PerKernel))
	}
	for _, k := range res.PerKernel {
		if k.Requests == 0 {
			t.Errorf("kernel %s never driven", k.Kernel)
		}
	}
	if len(res.Series) < 3 {
		t.Errorf("only %d series windows for a 600ms/100ms run", len(res.Series))
	}
}

// TestRunOpenLoop pins the open-loop mode: arrivals follow the configured
// rate, not the completion rate.
func TestRunOpenLoop(t *testing.T) {
	ts := stubServe(t)
	res, err := Run(context.Background(), Config{
		URLs:     []string{ts.URL},
		Kernels:  []Kernel{{Name: "a", Source: "ka"}},
		Rate:     200,
		Duration: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~100 arrivals scheduled; allow wide slop for runner jitter.
	if res.Requests < 40 || res.Requests > 160 {
		t.Errorf("open loop at 200/s for 0.5s completed %d requests", res.Requests)
	}
	if res.Config.RatePerSec != 200 {
		t.Errorf("config echo lost the rate: %+v", res.Config)
	}
}

func TestCacheBustSaltsRequests(t *testing.T) {
	var busted, plain atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := make([]byte, 4096)
		n, _ := r.Body.Read(body)
		if strings.Contains(string(body[:n]), "// bust s-") {
			busted.Add(1)
		} else {
			plain.Add(1)
		}
		fmt.Fprintln(w, "{}")
	}))
	defer ts.Close()
	_, err := Run(context.Background(), Config{
		URLs:        []string{ts.URL},
		Kernels:     []Kernel{{Name: "a", Source: "ka"}},
		Concurrency: 2,
		Duration:    300 * time.Millisecond,
		CacheBust:   0.5,
		Salt:        "s",
	})
	if err != nil {
		t.Fatal(err)
	}
	b, p := busted.Load(), plain.Load()
	if b == 0 || p == 0 {
		t.Fatalf("cache-bust 0.5 produced %d salted / %d plain requests", b, p)
	}
	// The split is deterministic in the sequence number: close to half.
	if ratio := float64(b) / float64(b+p); ratio < 0.3 || ratio > 0.7 {
		t.Errorf("salted fraction %.2f, want ~0.5", ratio)
	}
}

// TestMergeOrder pins the header-order merge: a list that starts with a
// hit's four entries still places a later miss's compile.* children
// between compile and serialize.
func TestMergeOrder(t *testing.T) {
	phases := func(paths ...string) []telemetry.Phase {
		var ps []telemetry.Phase
		for _, p := range paths {
			ps = append(ps, telemetry.Phase{Path: p})
		}
		return ps
	}
	order := mergeOrder(nil, phases("queue", "cache", "compile", "serialize"))
	order = mergeOrder(order, phases("queue", "compile", "compile.lift", "compile.saturate", "serialize"))
	order = mergeOrder(order, phases("queue", "cache"))
	want := []string{"queue", "cache", "compile", "compile.lift", "compile.saturate", "serialize"}
	if !slices.Equal(order, want) {
		t.Errorf("order %v, want %v", order, want)
	}
}

// baselineResult is a healthy run the gate table tests judge against.
func baselineResult() *SoakResult {
	return &SoakResult{
		Schema:        SoakSchema,
		Requests:      1000,
		OK:            995,
		ThroughputRPS: 100,
		ErrorRate:     0.002,
		ShedRate:      0.003,
		Latency:       LatencyMS{P50: 10, P90: 20, P99: 40, P999: 80, Max: 100, Mean: 12},
	}
}

// TestSLOGateTable is the acceptance-criteria table test: the gate passes a
// healthy run and fails each deliberately degraded run for the expected
// reason.
func TestSLOGateTable(t *testing.T) {
	slo := SLO{LatencyTolerance: 0.5, ErrorBudget: 0.01, ShedBudget: 0.05}
	cases := []struct {
		name        string
		mutate      func(*SoakResult)
		regressions int
		failMetric  string
	}{
		{"healthy run passes", func(r *SoakResult) {}, 0, ""},
		{"slightly slower within tolerance", func(r *SoakResult) {
			r.Latency.P50, r.Latency.P99 = 13, 55
		}, 0, ""},
		{"p99 blowup fails", func(r *SoakResult) {
			r.Latency.P99 = 90 // +125% > +50%
		}, 1, "p99 latency ms"},
		{"tail-only blowup fails", func(r *SoakResult) {
			r.Latency.P999 = 400
		}, 1, "p99.9 latency ms"},
		{"throughput collapse fails", func(r *SoakResult) {
			r.ThroughputRPS = 40 // -60% < -50%
		}, 1, "throughput rps"},
		{"error budget blown fails", func(r *SoakResult) {
			r.ErrorRate = 0.05
		}, 1, "error rate"},
		{"shed budget blown fails", func(r *SoakResult) {
			r.ShedRate = 0.20
		}, 1, "shed rate"},
		{"fully degraded run fails everything", func(r *SoakResult) {
			r.Latency = LatencyMS{P50: 100, P90: 200, P99: 400, P999: 800, Max: 900, Mean: 150}
			r.ThroughputRPS = 10
			r.ErrorRate = 0.30
			r.ShedRate = 0.40
		}, 7, "p50 latency ms"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cur := baselineResult()
			c.mutate(cur)
			rows := CompareResults(baselineResult(), cur, slo)
			if got := bench.CountRegressions(rows); got != c.regressions {
				t.Fatalf("regressions = %d, want %d\n%s",
					got, c.regressions, slo.Gate().Format(rows))
			}
			text := slo.Gate().Format(rows)
			if c.regressions == 0 {
				if !strings.Contains(text, "OK: serving SLO held") {
					t.Errorf("missing OK verdict:\n%s", text)
				}
				return
			}
			if !strings.Contains(text, "FAIL:") {
				t.Errorf("missing FAIL verdict:\n%s", text)
			}
			found := false
			for _, r := range rows {
				if r.Name == c.failMetric && r.Status == bench.CompareRegressed {
					found = true
				}
			}
			if !found {
				t.Errorf("expected %q to regress:\n%s", c.failMetric, text)
			}
		})
	}
}

// TestSLOGateLatencyFloor pins the floor: percentiles below it are all
// "fast enough", so sub-floor jitter passes while a jump past the floor
// still fails.
func TestSLOGateLatencyFloor(t *testing.T) {
	slo := SLO{LatencyTolerance: 0.5, ErrorBudget: 1, ShedBudget: 1, LatencyFloorMS: 5}
	base := baselineResult()
	base.Latency.P50 = 0.6 // a cache-hit-dominated p50: pure noise territory

	// 0.6 ms -> 4.4 ms is +633%, but both sit under the 5 ms floor: ok.
	cur := baselineResult()
	cur.Latency.P50 = 4.4
	if n := bench.CountRegressions(CompareResults(base, cur, slo)); n != 0 {
		t.Errorf("sub-floor jitter regressed the gate (%d)", n)
	}

	// 0.6 ms -> 40 ms clears the floor by far more than the tolerance.
	cur = baselineResult()
	cur.Latency.P50 = 40
	rows := CompareResults(base, cur, slo)
	if n := bench.CountRegressions(rows); n != 1 {
		t.Errorf("past-floor jump did not regress:\n%s", slo.Gate().Format(rows))
	}

	// Without the floor the jitter fails — the case the floor exists for.
	noFloor := slo
	noFloor.LatencyFloorMS = 0
	cur = baselineResult()
	cur.Latency.P50 = 4.4
	if n := bench.CountRegressions(CompareResults(base, cur, noFloor)); n != 1 {
		t.Error("floorless gate should flag the +633% move")
	}
}

// TestCompareRejectsForeignBaselines pins the schema check.
func TestCompareRejectsForeignBaselines(t *testing.T) {
	if _, err := Compare([]byte(`{"schema":"something-else"}`), baselineResult(), DefaultSLO); err == nil {
		t.Error("foreign schema accepted")
	}
	if _, err := Compare([]byte(`not json`), baselineResult(), DefaultSLO); err == nil {
		t.Error("garbage baseline accepted")
	}
	if _, err := Compare([]byte(`{"schema":"`+SoakSchema+`"}`), baselineResult(), DefaultSLO); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

func TestMixByNames(t *testing.T) {
	mix, ok := MixByNames([]string{"qr3", "dot8"})
	if !ok || len(mix) != 2 || mix[0].Name != "qr3" || mix[1].Name != "dot8" {
		t.Fatalf("MixByNames = %v, %v", mix, ok)
	}
	if _, ok := MixByNames([]string{"nope"}); ok {
		t.Error("unknown kernel accepted")
	}
	if _, ok := MixByNames(nil); ok {
		t.Error("empty selection accepted")
	}
}

// TestReportRendersSoak asserts the HTML soak report carries every section
// the acceptance criteria name: latency lanes, the shed timeline, phase,
// per-kernel and per-cache tables, and the embedded gate verdict.
func TestReportRendersSoak(t *testing.T) {
	res := baselineResult()
	res.Config = SoakConfig{
		URLs: []string{"http://localhost:8175"}, Kernels: []string{"dot8", "qr3"},
		Concurrency: 4, DurationSec: 20,
	}
	res.PhaseOrder = []string{"queue", "cache", "compile", "serialize"}
	res.Phases = map[string]LatencyMS{
		"queue":     {P50: 0.01, P99: 0.2, Max: 1, Mean: 0.05},
		"cache":     {P50: 0.02, P99: 0.1, Max: 0.5, Mean: 0.03},
		"compile":   {P50: 8, P99: 60, Max: 90, Mean: 12},
		"serialize": {P50: 0.2, P99: 1, Max: 2, Mean: 0.3},
	}
	res.PerKernel = []KernelStats{
		{Kernel: "dot8", Requests: 500, OK: 498, Latency: LatencyMS{P50: 6, P99: 20, Max: 30, Mean: 8}},
		{Kernel: "qr3", Requests: 500, OK: 497, Latency: LatencyMS{P50: 60, P99: 90, Max: 120, Mean: 65}},
	}
	res.PerCache = []CacheStats{
		{Outcome: "hit", Requests: 700, Latency: LatencyMS{P50: 1, P99: 3, Max: 5, Mean: 1.2}},
		{Outcome: "miss", Requests: 300, Latency: LatencyMS{P50: 30, P99: 80, Max: 100, Mean: 35}},
	}
	for i := 0; i < 20; i++ {
		res.Series = append(res.Series, Window{
			T: float64(i), RPS: 100, Requests: 100, OK: 95, Sheds: 3, Errors: 2,
			P50: 10 + float64(i), P99: 40 + float64(i),
		})
	}
	gate := DefaultSLO.Gate().Format(CompareResults(baselineResult(), res, DefaultSLO))

	page, err := Report(res, gate)
	if err != nil {
		t.Fatal(err)
	}
	html := string(page)
	for _, want := range []string{
		"<!DOCTYPE html>",
		"Latency over time",
		"Throughput, sheds, and errors",
		"Server-side phase breakdown",
		"Per-kernel",
		"Per cache outcome",
		"SLO gate",
		"serving SLO check",
		"polyline", // the shared chart partial actually rendered
		"p99 ms",
		"qr3",
		"coalesced", // absent outcome must not appear...
	} {
		if want == "coalesced" {
			if strings.Contains(html, want) {
				t.Errorf("report mentions %q though the run had none", want)
			}
			continue
		}
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if !strings.Contains(html, "</html>") {
		t.Error("report truncated")
	}
}
