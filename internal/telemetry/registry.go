package telemetry

import (
	"net/http"
	"sort"
	"sync"
)

// Registry is a live, process-wide metrics aggregate for long-running
// servers: monotonic counters, gauges (with a max variant for high-water
// marks), and fixed-bucket histograms, all keyed by (family, label set).
// It is the scrape-endpoint counterpart of the one-shot PrometheusTexts
// file exporter and shares its metrics model: both render through
// promFamily/renderFamilies, so label escaping and name hygiene are
// identical. Metric and label names are sanitized on first use
// (SanitizeMetricName/SanitizeLabelName); label values may be arbitrary
// strings. All methods are safe for concurrent use and nil-receiver safe,
// so instrumented code can run with no registry attached.
type Registry struct {
	mu       sync.Mutex
	families map[string]*liveFamily
	// runtime, when set by EnableRuntimeMetrics, collects Go runtime
	// gauges and the GC pause histogram at every render (runtime.go).
	runtime *runtimeCollector
}

type liveFamily struct {
	name, help string
	typ        string    // "counter", "gauge", or "histogram"
	buckets    []float64 // histogram upper bounds, ascending (no +Inf)
	samples    map[string]*liveSample
}

type liveSample struct {
	labels map[string]string
	value  float64  // counter/gauge value; histogram sum
	counts []uint64 // histogram per-bucket cumulative counts (+Inf last)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*liveFamily{}}
}

// family returns (creating if needed) the named family, sanitizing the
// name. A name reused with a different type keeps its original type: the
// first registration wins, matching Prometheus's one-type-per-name rule.
func (r *Registry) family(name, help, typ string, buckets []float64) *liveFamily {
	name = SanitizeMetricName(name)
	f := r.families[name]
	if f == nil {
		f = &liveFamily{name: name, help: help, typ: typ, buckets: buckets,
			samples: map[string]*liveSample{}}
		r.families[name] = f
	}
	return f
}

func (f *liveFamily) sample(labels map[string]string) *liveSample {
	key := renderLabels(labels)
	s := f.samples[key]
	if s == nil {
		var copied map[string]string
		if len(labels) > 0 {
			copied = make(map[string]string, len(labels))
			for k, v := range labels {
				copied[k] = v
			}
		}
		s = &liveSample{labels: copied}
		if f.typ == "histogram" {
			s.counts = make([]uint64, len(f.buckets)+1)
		}
		f.samples[key] = s
	}
	return s
}

// CounterAdd adds delta (which must be non-negative) to a counter.
func (r *Registry) CounterAdd(name, help string, labels map[string]string, delta float64) {
	if r == nil || delta < 0 {
		return
	}
	r.mu.Lock()
	r.family(name, help, "counter", nil).sample(labels).value += delta
	r.mu.Unlock()
}

// GaugeSet sets a gauge to v.
func (r *Registry) GaugeSet(name, help string, labels map[string]string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.family(name, help, "gauge", nil).sample(labels).value = v
	r.mu.Unlock()
}

// GaugeAdd adds delta (possibly negative) to a gauge — in-flight style.
func (r *Registry) GaugeAdd(name, help string, labels map[string]string, delta float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.family(name, help, "gauge", nil).sample(labels).value += delta
	r.mu.Unlock()
}

// GaugeMax raises a gauge to v if v exceeds its current value — the
// high-water-mark update used for e-graph sizes.
func (r *Registry) GaugeMax(name, help string, labels map[string]string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	s := r.family(name, help, "gauge", nil).sample(labels)
	if v > s.value {
		s.value = v
	}
	r.mu.Unlock()
}

// DefLatencyBuckets are the default histogram bounds for request and stage
// latencies, in seconds.
var DefLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// DefByteBuckets are the default histogram bounds for memory sizes, in
// bytes: powers of four from 64 KiB to 1 GiB, spanning toy kernels through
// searches near the node budget.
var DefByteBuckets = []float64{
	64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// Observe records v into a histogram with the given bucket upper bounds
// (ascending, +Inf implied; nil means DefLatencyBuckets). Buckets are fixed
// at the family's first registration.
func (r *Registry) Observe(name, help string, labels map[string]string, buckets []float64, v float64) {
	if r == nil {
		return
	}
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	r.mu.Lock()
	f := r.family(name, help, "histogram", buckets)
	s := f.sample(labels)
	s.value += v
	placed := false
	for i, le := range f.buckets {
		if v <= le {
			s.counts[i]++ // per-bucket counts; render cumulates
			placed = true
			break
		}
	}
	if !placed {
		s.counts[len(f.buckets)]++ // +Inf
	}
	r.mu.Unlock()
}

// ObserveTrace folds one completed compilation trace's outcome into the
// registry: e-graph node/class high-water marks, the peak-footprint
// histogram, and a stop-reason counter. Its wall time is the server's to
// observe, as phase paths (Phase) beside the request's own phases.
func (r *Registry) ObserveTrace(t *Trace) {
	if r == nil || t == nil {
		return
	}
	if g, ok := t.FinalGauge(); ok {
		r.GaugeMax("diospyros_saturation_nodes_max",
			"High-water mark of e-graph nodes across compiles.", nil, float64(g.Nodes))
		r.GaugeMax("diospyros_saturation_classes_max",
			"High-water mark of e-graph classes across compiles.", nil, float64(g.Classes))
	}
	if t.Memory != nil && t.Memory.PeakBytes > 0 {
		r.Observe("diospyros_egraph_peak_bytes",
			"Per-compile peak e-graph logical footprint.",
			nil, DefByteBuckets, float64(t.Memory.PeakBytes))
	}
	if t.StopReason != "" {
		r.CounterAdd("diospyros_saturation_stop_total",
			"Saturation outcomes by stop reason.",
			map[string]string{"reason": t.StopReason}, 1)
	}
}

// PrometheusText renders the registry in the Prometheus text exposition
// format, families sorted by name. Histograms expand to the standard
// _bucket/_sum/_count series.
func (r *Registry) PrometheusText() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	rc := r.runtime
	r.mu.Unlock()
	if rc != nil {
		// Snapshot the runtime before taking the render lock: collection
		// records through the public methods, which lock themselves.
		r.collectRuntime(rc)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)

	var fams []promFamily
	for _, n := range names {
		f := r.families[n]
		keys := make([]string, 0, len(f.samples))
		for k := range f.samples {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if f.typ != "histogram" {
			out := promFamily{name: f.name, help: f.help, typ: f.typ}
			for _, k := range keys {
				out.samples = append(out.samples, promSample{labels: k, value: f.samples[k].value})
			}
			fams = append(fams, out)
			continue
		}
		out := promFamily{name: f.name, help: f.help, typ: "histogram"}
		for _, k := range keys {
			s := f.samples[k]
			var cum uint64
			for i, le := range f.buckets {
				cum += s.counts[i]
				out.samples = append(out.samples, promSample{suffix: "_bucket",
					labels: withLE(s.labels, formatPromValue(le)), value: float64(cum)})
			}
			cum += s.counts[len(f.buckets)]
			out.samples = append(out.samples, promSample{suffix: "_bucket",
				labels: withLE(s.labels, "+Inf"), value: float64(cum)})
			out.samples = append(out.samples,
				promSample{suffix: "_sum", labels: k, value: s.value},
				promSample{suffix: "_count", labels: k, value: float64(cum)})
		}
		fams = append(fams, out)
	}
	return renderFamilies(fams)
}

// withLE renders a sample's labels with the histogram le bound added.
func withLE(labels map[string]string, le string) string {
	m := make(map[string]string, len(labels)+1)
	for k, v := range labels {
		m[k] = v
	}
	m["le"] = le
	return renderLabels(m)
}

// ServeHTTP makes the registry a scrape endpoint (GET /metrics).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(r.PrometheusText()))
}

// AbortError is the context-cancellation cause used by saturation
// watchdogs: aborting a compile with
// context.CancelCauseFunc(&AbortError{Reason: ...}) marks the resulting
// trace's StopReason as "aborted:<reason>" and lets servers count aborts
// per reason. Reasons are short tokens ("node-budget", "wall-budget",
// "heap-budget").
type AbortError struct {
	Reason string
}

// Error renders the abort with its reason token.
func (e *AbortError) Error() string { return "saturation aborted: " + e.Reason }
