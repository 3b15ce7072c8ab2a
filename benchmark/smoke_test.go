package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"diospyros/internal/serve"
)

// inProcessServer serves internal/serve from an httptest server, standing
// in for the diosserve process.
func inProcessServer(context.Context) (*server, error) {
	ts := httptest.NewServer(serve.New(serve.Config{CacheBytes: serveCacheBytes}).Handler())
	var once sync.Once
	return &server{url: ts.URL, stop: func() float64 {
		once.Do(ts.Close)
		return selfPeakRSSMB()
	}}, nil
}

// TestWorkloadsReportEveryMetric runs each workload for one pass, untraced
// and traced, and checks that every op succeeded and that the output names
// every metric of BENCHMARK.json with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDecl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i])
		}
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := runConfig{root: "..", seed: 1, passes: 1, trace: trace}
				res, err := runWorkload(context.Background(), w, cfg, inProcessServer)
				if err != nil {
					t.Fatalf("trace %v: %v", trace, err)
				}
				if res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("trace %v: %d of %d ops failed: %v", trace, res.Failed, res.Attempted, res.Errors)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace %v: metric %s = %+v, %v; want unit %s", trace, m.Name, got, ok, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics, BENCHMARK.json declares %d", trace, len(res.Metrics), len(want))
				}
			}
		})
	}
}
