package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// SoakResult is the JSON artifact of one load-generation run — the serving
// counterpart of diosbench's -bench-json rows.

// SoakSchema identifies the SoakResult JSON format.
const SoakSchema = "diosload/serve-soak/v1"

// LatencyMS is one latency distribution flattened to the percentiles an
// SLO speaks, in milliseconds.
type LatencyMS struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// KernelStats is one kernel's share of the run.
type KernelStats struct {
	Kernel   string    `json:"kernel"`
	Requests int64     `json:"requests"`
	OK       int64     `json:"ok"`
	Latency  LatencyMS `json:"latency_ms"`
}

// CacheStats is one cache outcome's share of successful compiles, keyed by
// the X-Dios-Cache header ("hit", "miss", "coalesced") or "bypass" when the
// server sent none.
type CacheStats struct {
	Outcome  string    `json:"outcome"`
	Requests int64     `json:"requests"`
	Latency  LatencyMS `json:"latency_ms"`
}

// Window is one time-series bucket of the run's trajectory.
type Window struct {
	// T is the window's start offset from the run's start, in seconds.
	T float64 `json:"t"`
	// RPS is completed requests per second in this window.
	RPS      float64 `json:"rps"`
	Requests int64   `json:"requests"`
	OK       int64   `json:"ok"`
	Sheds    int64   `json:"sheds"`
	Errors   int64   `json:"errors"`
	P50      float64 `json:"p50_ms"`
	P99      float64 `json:"p99_ms"`
}

// SoakConfig echoes the knobs that shaped the run, so the artifact
// documents how to reproduce it.
type SoakConfig struct {
	URLs        []string `json:"urls"`
	Kernels     []string `json:"kernels"`
	Concurrency int      `json:"concurrency"`
	RatePerSec  float64  `json:"rate_per_sec,omitempty"`
	DurationSec float64  `json:"duration_sec"`
	TimeoutSec  float64  `json:"timeout_sec,omitempty"`
	CacheBust   float64  `json:"cache_bust,omitempty"`
	Targets     []string `json:"targets,omitempty"`
}

// SoakResult is the complete outcome of one run.
type SoakResult struct {
	Schema    string     `json:"schema"`
	StartedAt string     `json:"started_at"`
	Build     string     `json:"build,omitempty"`
	Config    SoakConfig `json:"config"`

	// Requests counts every completed request, successful or not.
	Requests int64 `json:"requests"`
	// ThroughputRPS is Requests over the measured run duration.
	ThroughputRPS float64 `json:"throughput_rps"`

	// Outcome counts. OK are 200s; Sheds are 503s (admission control);
	// Timeouts are 504s and client-side deadline misses; Aborts are 422s
	// (watchdog budgets); Errors is everything else, including transport
	// failures.
	OK       int64 `json:"ok"`
	Sheds    int64 `json:"sheds"`
	Timeouts int64 `json:"timeouts"`
	Aborts   int64 `json:"aborts"`
	Errors   int64 `json:"errors"`
	// ErrorRate is (Errors+Timeouts+Aborts)/Requests. ShedRate is
	// Sheds/Requests, kept apart because shedding is the server protecting
	// itself, not failing.
	ErrorRate float64 `json:"error_rate"`
	ShedRate  float64 `json:"shed_rate"`

	// Cache outcome counts across successful compiles, from X-Dios-Cache.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheCoalesced int64 `json:"cache_coalesced"`
	// CacheHitRatio is (hits+coalesced) / (hits+misses+coalesced): the
	// fraction of cache-mediated compiles that avoided running the pipeline.
	CacheHitRatio float64 `json:"cache_hit_ratio"`

	// Latency is the whole-run distribution of successful (200) requests.
	Latency LatencyMS `json:"latency_ms"`
	// AllLatency includes every completed request — sheds resolve fast, so
	// this is usually lower than Latency under overload.
	AllLatency LatencyMS `json:"all_latency_ms"`

	// Phases breaks successful requests down by the server-reported
	// X-Dios-Server-Timing phase paths: queue, cache, compile with its
	// compile.* children, serialize. PhaseOrder lists them in header order.
	Phases     map[string]LatencyMS `json:"phases_ms,omitempty"`
	PhaseOrder []string             `json:"phase_order,omitempty"`

	PerKernel []KernelStats `json:"per_kernel"`
	PerCache  []CacheStats  `json:"per_cache,omitempty"`
	Series    []Window      `json:"series,omitempty"`
}

// WriteJSON writes the result as indented JSON.
func WriteJSON(path string, res *SoakResult) error {
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// FormatSummary renders the run's headline numbers as the text block
// diosload prints after a soak.
func FormatSummary(res *SoakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== soak: %d requests over %.0fs against %s ==\n",
		res.Requests, res.Config.DurationSec, strings.Join(res.Config.URLs, ","))
	fmt.Fprintf(&b, "throughput  %8.1f req/s\n", res.ThroughputRPS)
	fmt.Fprintf(&b, "latency ms  p50 %.1f  p90 %.1f  p99 %.1f  p99.9 %.1f  max %.1f  (successful requests)\n",
		res.Latency.P50, res.Latency.P90, res.Latency.P99, res.Latency.P999, res.Latency.Max)
	fmt.Fprintf(&b, "outcomes    %d ok, %d shed, %d timeout, %d aborted, %d errored (error rate %.2f%%, shed rate %.2f%%)\n",
		res.OK, res.Sheds, res.Timeouts, res.Aborts, res.Errors,
		res.ErrorRate*100, res.ShedRate*100)
	fmt.Fprintf(&b, "cache       %d hit, %d miss, %d coalesced (hit ratio %.0f%%)\n",
		res.CacheHits, res.CacheMisses, res.CacheCoalesced, res.CacheHitRatio*100)
	if len(res.Phases) > 0 {
		fmt.Fprintf(&b, "phases p99  ")
		var parts []string
		for _, name := range res.PhaseOrder {
			if p, ok := res.Phases[name]; ok {
				parts = append(parts, fmt.Sprintf("%s %.2fms", name, p.P99))
			}
		}
		fmt.Fprintf(&b, "%s\n", strings.Join(parts, ", "))
	}
	return b.String()
}
