package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// promFamily is one metric family: HELP/TYPE header plus samples. It is
// the shared metrics model of the one-shot file exporter (PrometheusTexts)
// and the live scrape Registry (registry.go): both reduce their state to
// promFamily values and render through renderFamilies, so name hygiene and
// escaping behave identically in a -metrics-out dump and a /metrics scrape.
type promFamily struct {
	name, help string
	typ        string // "gauge", "counter", or "histogram"; "" means gauge
	samples    []promSample
}

type promSample struct {
	suffix string // appended to the family name ("_bucket", "_sum", ...) or ""
	labels string // pre-rendered {k="v",...} or ""
	value  float64
}

// renderFamilies renders metric families in the Prometheus text exposition
// format (text/plain; version=0.0.4). Empty families are omitted.
func renderFamilies(fams []promFamily) string {
	var b strings.Builder
	for _, f := range fams {
		if len(f.samples) == 0 {
			continue
		}
		typ := f.typ
		if typ == "" {
			typ = "gauge"
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ)
		for _, s := range f.samples {
			fmt.Fprintf(&b, "%s%s%s %s\n", f.name, s.suffix, s.labels, formatPromValue(s.value))
		}
	}
	return b.String()
}

// SanitizeMetricName maps an arbitrary string to a valid Prometheus metric
// name ([a-zA-Z_:][a-zA-Z0-9_:]*): every invalid byte becomes '_', a
// leading digit is prefixed with '_', and an empty input becomes "_". Rule
// and kernel names are user-controlled, so every dynamic name crossing
// into a metric or label *name* position must pass through here (label
// values are instead quoted and escaped by renderLabels).
func SanitizeMetricName(s string) string {
	return sanitizeName(s, true)
}

// SanitizeLabelName is SanitizeMetricName for label names, which
// additionally forbid colons.
func SanitizeLabelName(s string) string {
	return sanitizeName(s, false)
}

func sanitizeName(s string, allowColon bool) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(s) + 1)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && allowColon:
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
		default:
			c = '_'
		}
		b.WriteByte(c)
	}
	return b.String()
}

// PrometheusText renders one trace in the Prometheus text exposition
// format — the -metrics-out artifact. See PrometheusTexts for the
// multi-kernel form; the trace name, when non-empty, becomes a
// kernel="name" label on every sample.
func (t *Trace) PrometheusText(name string) string {
	return PrometheusTexts([]NamedTrace{{Name: name, Trace: t}})
}

// PrometheusTexts renders traces in the Prometheus text exposition format
// (text/plain; version=0.0.4): each metric family appears once with its
// HELP/TYPE header, with one sample per trace labelled kernel="<name>".
// All metrics are gauges: a compilation is an event, not a process, so the
// values are point-in-time readings of its trace.
func PrometheusTexts(traces []NamedTrace) string {
	fams := []promFamily{
		{name: "diospyros_phase_seconds", help: "Wall time by phase path (compile, compile.<stage>, compile.saturate.<step>)."},
		{name: "diospyros_phase_alloc_bytes", help: "Heap allocated by phase path (runtime TotalAlloc delta)."},
		{name: "diospyros_saturation_iterations", help: "Equality-saturation iterations run."},
		{name: "diospyros_saturation_nodes", help: "E-graph nodes after the final iteration."},
		{name: "diospyros_saturation_classes", help: "E-graph classes after the final iteration."},
		{name: "diospyros_counter", help: "Free-form compilation counters."},
	}
	idx := map[string]*promFamily{}
	for i := range fams {
		idx[fams[i].name] = &fams[i]
	}
	add := func(fam string, labels map[string]string, v float64) {
		f := idx[fam]
		f.samples = append(f.samples, promSample{labels: renderLabels(labels), value: v})
	}

	for _, nt := range traces {
		t := nt.Trace
		if t == nil {
			continue
		}
		base := map[string]string{}
		if nt.Name != "" {
			base["kernel"] = nt.Name
		}
		with := func(k, v string) map[string]string {
			m := map[string]string{k: v}
			for bk, bv := range base {
				m[bk] = bv
			}
			return m
		}
		for _, p := range t.Phases() {
			add("diospyros_phase_seconds", with("path", p.Path), p.Duration.Seconds())
			if p.metered() {
				add("diospyros_phase_alloc_bytes", with("path", p.Path), float64(p.AllocBytes))
			}
		}
		add("diospyros_saturation_iterations", base, float64(len(t.Iterations)))
		if g, ok := t.FinalGauge(); ok {
			add("diospyros_saturation_nodes", base, float64(g.Nodes))
			add("diospyros_saturation_classes", base, float64(g.Classes))
		}
		names := make([]string, 0, len(t.Counters))
		for n := range t.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			add("diospyros_counter", with("name", n), float64(t.Counters[n]))
		}
	}

	return renderFamilies(fams)
}

// renderLabels renders a label set as {k="v",...} with keys sorted. Label
// names are sanitized (they cannot be quoted), and Go's %q escaping of the
// values matches the exposition format's rules for backslash, quote, and
// newline.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", SanitizeLabelName(k), labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// formatPromValue renders a float without exponent noise for integers.
func formatPromValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
