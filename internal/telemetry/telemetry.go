// Package telemetry provides lightweight compilation telemetry: named
// spans (per-stage wall time and heap-allocation delta), counters, and
// per-iteration equality-saturation gauges (nodes, classes, one row of
// match/apply counts per rule).
//
// A Recorder collects events while a pipeline runs and is folded into an
// immutable Trace at the end. The Trace is attached to every compilation
// result, drives Table 1 of the evaluation, and is what the -trace/-json
// CLI flags print. Traces export to Chrome trace-event JSON (chrome.go,
// the -trace-out flag) and the Prometheus text format (prometheus.go,
// -metrics-out), and may carry the rewrite-provenance Explanation of the
// compiled program (explain.go, -explain). All Recorder methods are
// nil-receiver safe so callers that do not want telemetry can pass a nil
// recorder.
//
// For long-running processes the package also provides a live metrics
// Registry (registry.go) — counters, gauges, and histograms aggregated
// across many compilations and rendered at a Prometheus scrape endpoint,
// sharing the file exporter's rendering and name-hygiene model — and slog
// plumbing (log.go) that threads a structured logger and per-request ID
// through the pipeline's context.
package telemetry

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one completed pipeline stage: wall time plus the heap allocated
// while it ran (cumulative runtime.MemStats.TotalAlloc delta, the Table 1
// memory proxy).
type Span struct {
	Name       string        `json:"name"`
	Start      time.Duration `json:"start_offset"` // offset from trace start
	Duration   time.Duration `json:"duration"`
	AllocBytes uint64        `json:"alloc_bytes"`
}

// IterationGauge is a per-iteration snapshot of an equality-saturation
// run: e-graph size after the iteration's rebuild and the iteration's rule
// activity. The gauges of a run are its only record of the search.
type IterationGauge struct {
	Iteration int `json:"iteration"` // 1-based
	Nodes     int `json:"nodes"`
	Classes   int `json:"classes"`
	// Matches and Applied total the iteration's rule rows, leaving out the
	// discarded matches of banned steps.
	Matches int `json:"matches"`
	Applied int `json:"applied"`
	// Rules holds one row per rule that matched this iteration, banned
	// steps included, in rule order.
	Rules    []RuleStep    `json:"rules,omitempty"`
	Duration time.Duration `json:"duration"`
	// Index, Match, Apply and Rebuild split Duration by the steps of the
	// saturation loop (paper §3.3): building the head index over the
	// canonical classes, the rest of the search, applying the matches, and
	// restoring congruence. They are wall time; an iteration cut short
	// leaves the steps it never reached at zero.
	Index   time.Duration `json:"index,omitempty"`
	Match   time.Duration `json:"match,omitempty"`
	Apply   time.Duration `json:"apply,omitempty"`
	Rebuild time.Duration `json:"rebuild,omitempty"`
	// Bytes is the e-graph's logical footprint after the iteration (memory
	// trajectory beside the node/class trajectory); 0 when not measured.
	Bytes int64 `json:"bytes,omitempty"`
	// BestCost is the root's cheapest extractable cost after the iteration,
	// present only when the run's cost sampler was armed.
	BestCost *float64 `json:"best_cost,omitempty"`
}

// Untimed returns gs with every wall-time field zeroed — each iteration's
// Duration and loop steps and each rule row's Duration — leaving only
// what the determinism contract (DESIGN.md §9) pins.
func Untimed(gs []IterationGauge) []IterationGauge {
	out := make([]IterationGauge, len(gs))
	for i, g := range gs {
		g.Duration, g.Index, g.Match, g.Apply, g.Rebuild = 0, 0, 0, 0, 0
		g.Rules = append([]RuleStep(nil), g.Rules...)
		for k := range g.Rules {
			g.Rules[k].Duration = 0
		}
		out[i] = g
	}
	return out
}

// TraceSchema identifies the Trace JSON format. Every trace serialized by
// this package carries it, the way loadgen's SoakResult carries
// "diosload/serve-soak/v1", so downstream consumers — diosdiff above all —
// can reject stale or foreign artifacts with a clear error instead of
// silently mis-reading them.
const TraceSchema = "diospyros/trace/v2"

// Trace is the full telemetry record of one compilation: the stage spans
// in execution order, the saturation iteration gauges, free-form counters,
// and end-to-end totals.
type Trace struct {
	// Schema identifies the JSON format (TraceSchema). Stamped by
	// Recorder.Finish and by JSON; empty only on hand-built literals.
	Schema     string           `json:"schema,omitempty"`
	Stages     []Span           `json:"stages"`
	Iterations []IterationGauge `json:"iterations,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	// StopReason mirrors egraph.StopReason for the saturation stage
	// ("saturated", "timeout", "cancelled", "node-limit", "iter-limit").
	StopReason string `json:"stop_reason,omitempty"`
	// Explanation, when provenance recording was enabled, is the ordered
	// rule chain that justifies the extracted program (the -explain report).
	Explanation *Explanation `json:"explanation,omitempty"`
	// Extraction is the extraction decision trace (search.go), present when
	// the compile ran with a journal (Options.Journal / the -report flag /
	// an SSE compile).
	Extraction *ExtractionTrace `json:"extraction,omitempty"`
	// Memory is the compile's memory record (memory.go): the e-graph's peak
	// logical footprint with its per-component breakdown and the runtime
	// heap/GC samples collected while the pipeline ran.
	Memory *MemoryTrace `json:"memory,omitempty"`
	// Duration and AllocBytes cover the whole pipeline, including
	// per-stage telemetry overhead not attributed to any span.
	Duration   time.Duration `json:"duration"`
	AllocBytes uint64        `json:"alloc_bytes"`
}

// FinalGauge returns the last iteration gauge — the e-graph's final size.
func (t *Trace) FinalGauge() (IterationGauge, bool) {
	if len(t.Iterations) == 0 {
		return IterationGauge{}, false
	}
	return t.Iterations[len(t.Iterations)-1], true
}

// Saturated reports whether the saturation stage reached a fixpoint.
func (t *Trace) Saturated() bool { return t.StopReason == "saturated" }

// JSON renders the trace for machine consumption (the -json CLI flag),
// stamping the schema identifier if the trace does not carry one yet.
func (t *Trace) JSON() ([]byte, error) {
	if t.Schema == "" {
		t.Schema = TraceSchema
	}
	return json.MarshalIndent(t, "", "  ")
}

// Format renders the human-readable phase table printed by -trace: one
// row per Trace.Phases entry with its wall time, allocation and share of
// the compile. The name column adapts to the longest path and counter
// name so long names never break the alignment.
func (t *Trace) Format() string {
	var b strings.Builder
	rows := t.phaseRows()
	nameW := len("phase")
	for _, r := range rows {
		nameW = max(nameW, len(r.Path))
	}
	fmt.Fprintf(&b, "%-*s %12s %12s %8s\n", nameW, "phase", "time", "alloc", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s %12s %12s %7.1f%%\n", nameW, r.Path, r.Duration, r.Alloc, r.SharePct)
	}
	if len(t.Iterations) > 0 {
		g := t.Iterations[len(t.Iterations)-1]
		fmt.Fprintf(&b, "saturation: %d iterations, %d nodes, %d classes, stopped: %s\n",
			len(t.Iterations), g.Nodes, g.Classes, t.StopReason)
	}
	formatRules(&b, t.Iterations)
	if t.Memory != nil && t.Memory.PeakBytes > 0 {
		fmt.Fprintf(&b, "memory: e-graph peak %.2f MB at iteration %d",
			float64(t.Memory.PeakBytes)/1e6, t.Memory.PeakIteration)
		if t.Memory.HeapPeakBytes > 0 {
			fmt.Fprintf(&b, ", heap peak %.2f MB (%d GC cycles)",
				float64(t.Memory.HeapPeakBytes)/1e6, t.Memory.GCCycles)
		}
		b.WriteByte('\n')
	}
	if len(t.Counters) > 0 {
		names := make([]string, 0, len(t.Counters))
		counterW := 0
		for n := range t.Counters {
			names = append(names, n)
			if len(n) > counterW {
				counterW = len(n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "counter %-*s %d\n", counterW, n, t.Counters[n])
		}
	}
	return b.String()
}

// Recorder accumulates telemetry during a pipeline run. All methods are
// safe for concurrent use, so fanned-out workers (e.g. parallel bench
// kernels or server request handlers) can share one recorder. Spans still
// model pipeline stages and are appended in End order; overlapping spans
// from concurrent goroutines are recorded faithfully but the stage table
// assumes they rarely overlap. Finish must still happen last: it snapshots
// whatever has been recorded, and later writes are lost. The zero value is
// not usable — call NewRecorder, which stamps the trace start.
type Recorder struct {
	start      time.Time
	startAlloc uint64

	mu    sync.Mutex // guards trace
	trace Trace
}

// NewRecorder starts a trace at the current time and heap state.
func NewRecorder() *Recorder {
	return &Recorder{start: time.Now(), startAlloc: totalAlloc()}
}

// ActiveSpan is a span in progress; End completes and records it.
type ActiveSpan struct {
	rec        *Recorder
	name       string
	started    time.Time
	startAlloc uint64
}

// StartSpan opens a named span. Spans are expected to be sequential and
// non-overlapping (pipeline stages).
func (r *Recorder) StartSpan(name string) *ActiveSpan {
	if r == nil {
		return nil
	}
	return &ActiveSpan{rec: r, name: name, started: time.Now(), startAlloc: totalAlloc()}
}

// End completes the span and appends it to the trace.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	span := Span{
		Name:       s.name,
		Start:      s.started.Sub(s.rec.start),
		Duration:   time.Since(s.started),
		AllocBytes: totalAlloc() - s.startAlloc,
	}
	s.rec.mu.Lock()
	s.rec.trace.Stages = append(s.rec.trace.Stages, span)
	s.rec.mu.Unlock()
}

// Count adds delta to a named counter. Safe for concurrent use.
func (r *Recorder) Count(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.trace.Counters == nil {
		r.trace.Counters = map[string]int64{}
	}
	r.trace.Counters[name] += delta
	r.mu.Unlock()
}

// Set applies f to the trace in progress under the recorder's lock: how a
// pipeline attaches what it learns as a whole — the iteration gauges, the
// stop reason, the memory, extraction and provenance records.
func (r *Recorder) Set(f func(t *Trace)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	f(&r.trace)
	r.mu.Unlock()
}

// Finish stamps the end-to-end totals and returns the completed trace.
// The recorder must not be used afterwards.
func (r *Recorder) Finish() *Trace {
	if r == nil {
		return &Trace{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trace.Schema = TraceSchema
	r.trace.Duration = time.Since(r.start)
	r.trace.AllocBytes = totalAlloc() - r.startAlloc
	return &r.trace
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
