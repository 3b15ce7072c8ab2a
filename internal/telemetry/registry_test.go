package telemetry

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryCountersGaugesRender(t *testing.T) {
	r := NewRegistry()
	r.CounterAdd("serve_requests_total", "Requests.", map[string]string{"code": "200"}, 1)
	r.CounterAdd("serve_requests_total", "Requests.", map[string]string{"code": "200"}, 1)
	r.CounterAdd("serve_requests_total", "Requests.", map[string]string{"code": "400"}, 1)
	r.CounterAdd("serve_requests_total", "Requests.", nil, -5) // negative deltas dropped
	r.GaugeSet("queue_depth", "Queue.", nil, 3)
	r.GaugeAdd("in_flight", "In flight.", nil, 2)
	r.GaugeAdd("in_flight", "In flight.", nil, -1)
	r.GaugeMax("nodes_max", "HWM.", nil, 10)
	r.GaugeMax("nodes_max", "HWM.", nil, 7) // lower value must not regress the mark

	out := r.PrometheusText()
	for _, want := range []string{
		"# TYPE serve_requests_total counter",
		`serve_requests_total{code="200"} 2`,
		`serve_requests_total{code="400"} 1`,
		"# TYPE queue_depth gauge",
		"queue_depth 3",
		"in_flight 1",
		"nodes_max 10",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "-5") {
		t.Errorf("negative counter delta leaked into:\n%s", out)
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	buckets := []float64{0.1, 1, 10}
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		r.Observe("stage_seconds", "Latency.", map[string]string{"stage": "saturate"}, buckets, v)
	}
	out := r.PrometheusText()
	for _, want := range []string{
		"# HELP stage_seconds Latency.",
		"# TYPE stage_seconds histogram",
		`stage_seconds_bucket{le="0.1",stage="saturate"} 1`,
		`stage_seconds_bucket{le="1",stage="saturate"} 3`,
		`stage_seconds_bucket{le="10",stage="saturate"} 4`,
		`stage_seconds_bucket{le="+Inf",stage="saturate"} 5`,
		`stage_seconds_sum{stage="saturate"} 56.05`,
		`stage_seconds_count{stage="saturate"} 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// The base family name must not appear as a bare sample.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "stage_seconds ") || strings.HasPrefix(line, "stage_seconds{") {
			t.Errorf("bare histogram sample line %q", line)
		}
	}
}

func TestRegistryObserveTrace(t *testing.T) {
	r := NewRegistry()
	tr := &Trace{
		Stages: []Span{
			{Name: "saturate", Duration: 20 * time.Millisecond},
			{Name: "extract", Duration: 2 * time.Millisecond},
		},
		Iterations: []IterationGauge{{Iteration: 1, Nodes: 500, Classes: 200}},
		StopReason: "saturated",
		Duration:   25 * time.Millisecond,
	}
	r.ObserveTrace(tr)
	r.ObserveTrace(tr)
	r.ObserveTrace(nil) // no-op

	out := r.PrometheusText()
	if strings.Contains(out, "_seconds") {
		t.Errorf("ObserveTrace observed wall time, which is the server's to observe:\n%s", out)
	}
	for _, want := range []string{
		`diospyros_saturation_nodes_max 500`,
		`diospyros_saturation_classes_max 200`,
		`diospyros_saturation_stop_total{reason="saturated"} 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.CounterAdd("a", "", nil, 1)
	r.GaugeSet("b", "", nil, 1)
	r.GaugeAdd("b", "", nil, 1)
	r.GaugeMax("b", "", nil, 1)
	r.Observe("c", "", nil, nil, 1)
	r.ObserveTrace(&Trace{})
	if got := r.PrometheusText(); got != "" {
		t.Errorf("nil registry rendered %q", got)
	}
}

func TestRegistryServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.CounterAdd("hits_total", "Hits.", nil, 1)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1\n") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

// TestRegistryConcurrent hammers every mutator from many goroutines while
// scraping — run under -race in CI.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.CounterAdd("ops_total", "Ops.", nil, 1)
				r.GaugeAdd("depth", "Depth.", nil, 1)
				r.Observe("lat", "Lat.", nil, nil, 0.01)
				r.GaugeAdd("depth", "Depth.", nil, -1)
				_ = r.PrometheusText()
			}
		}()
	}
	wg.Wait()
	out := r.PrometheusText()
	if !strings.Contains(out, "ops_total 4000\n") || !strings.Contains(out, "depth 0\n") {
		t.Errorf("final state wrong:\n%s", out)
	}
}

// TestSanitizeNames is the shared name-hygiene table: hostile rule/kernel
// names that may reach metric- or label-name position in either exporter.
func TestSanitizeNames(t *testing.T) {
	cases := []struct {
		in, metric, label string
	}{
		{"vec-mac", "vec_mac", "vec_mac"},
		{"2dconv 3x3", "_2dconv_3x3", "_2dconv_3x3"},
		{"saturate.applied", "saturate_applied", "saturate_applied"},
		{"ns:metric", "ns:metric", "ns_metric"},
		{`odd"name` + "\nx", "odd_name_x", "odd_name_x"},
		{"µkernel", "__kernel", "__kernel"}, // µ is 2 UTF-8 bytes
		{"", "_", "_"},
		{"ok_name", "ok_name", "ok_name"},
	}
	for _, c := range cases {
		if got := SanitizeMetricName(c.in); got != c.metric {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", c.in, got, c.metric)
		}
		if got := SanitizeLabelName(c.in); got != c.label {
			t.Errorf("SanitizeLabelName(%q) = %q, want %q", c.in, got, c.label)
		}
	}
}

// TestHostileNamesBothExporters pushes the same hostile names through the
// live registry (name position) and the file exporter (label position) and
// asserts both outputs stay parseable under the exposition grammar.
func TestHostileNamesBothExporters(t *testing.T) {
	hostile := []string{"vec mac{evil=\"1\"}", "2x2 MatMul", "rule\nnewline", "µ"}

	reg := NewRegistry()
	for _, h := range hostile {
		reg.CounterAdd(h, "Hostile.", map[string]string{h: h}, 1)
	}
	tr := &Trace{Counters: map[string]int64{}}
	for _, h := range hostile {
		tr.Counters[h] = 1
	}
	for name, out := range map[string]string{
		"registry": reg.PrometheusText(),
		"file":     tr.PrometheusText(hostile[0]),
	} {
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			sp := strings.LastIndex(line, " ")
			if sp < 0 {
				t.Errorf("%s: malformed line %q", name, line)
				continue
			}
			series := line[:sp]
			nameEnd := strings.IndexByte(series, '{')
			if nameEnd < 0 {
				nameEnd = len(series)
			}
			for i := 0; i < nameEnd; i++ {
				c := series[i]
				ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') ||
					(c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
				if !ok {
					t.Errorf("%s: invalid metric name in %q", name, line)
					break
				}
			}
			if nameEnd < len(series) && !strings.HasSuffix(series, "}") {
				t.Errorf("%s: unterminated label set in %q", name, line)
			}
		}
	}
}
