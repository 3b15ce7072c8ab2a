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

// healthyResult is a healthy run for the report tests.
func healthyResult() *SoakResult {
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
