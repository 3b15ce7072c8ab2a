package bench

import (
	"strings"
	"testing"
)

func compareFixture(t *testing.T) []CompareRow {
	t.Helper()
	baseline := []byte(`[
		{"id": "steady", "cycles": 1000},
		{"id": "slower", "cycles": 1000},
		{"id": "faster", "cycles": 1000},
		{"id": "gone", "cycles": 500}
	]`)
	rows := []T1Row{
		{Kernel: Kernel{ID: "steady"}, Cycles: 1100}, // +10%, inside tolerance
		{Kernel: Kernel{ID: "slower"}, Cycles: 1200}, // +20%, regression
		{Kernel: Kernel{ID: "faster"}, Cycles: 700},  // -30%, improvement
		{Kernel: Kernel{ID: "fresh"}, Cycles: 42},    // not in baseline
	}
	out, err := CompareBenchMetric(baseline, rows, 0.15, MetricCycles)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCompareBenchStatuses(t *testing.T) {
	want := map[string]CompareStatus{
		"steady": CompareOK,
		"slower": CompareRegressed,
		"faster": CompareImproved,
		"gone":   CompareMissing,
		"fresh":  CompareNew,
	}
	rows := compareFixture(t)
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for _, r := range rows {
		if r.Status != want[r.Name] {
			t.Errorf("%s: status %s, want %s (delta %+.2f)", r.Name, r.Status, want[r.Name], r.Delta)
		}
	}
	if n := CountRegressions(rows); n != 1 {
		t.Errorf("CountRegressions = %d, want 1", n)
	}
}

func TestCompareBenchBoundary(t *testing.T) {
	// Exactly at tolerance is not a regression: the gate is strict-greater.
	rows, err := CompareBenchMetric([]byte(`[{"id":"k","cycles":100}]`),
		[]T1Row{{Kernel: Kernel{ID: "k"}, Cycles: 115}}, 0.15, MetricCycles)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Status != CompareOK {
		t.Errorf("+15%% at 15%% tolerance = %s, want ok", rows[0].Status)
	}
}

func TestCompareBenchErrors(t *testing.T) {
	if _, err := CompareBenchMetric([]byte(`{not json`), nil, 0.15, MetricCycles); err == nil {
		t.Error("bad baseline JSON accepted")
	}
	if _, err := CompareBenchMetric([]byte(`[]`), nil, -1, MetricCycles); err == nil {
		t.Error("negative tolerance accepted")
	}
}

// TestCompareBenchZeroBaseline pins the zero-baseline guard: a baseline row
// whose metric is zero (an old-format file, or a kernel that never produced
// the metric) must come back informational, never ±Inf and never a gate
// failure.
func TestCompareBenchZeroBaseline(t *testing.T) {
	cases := []struct {
		name     string
		baseline string
		metric   CompareMetric
	}{
		{"zero cycles", `[{"id":"k","cycles":0}]`, MetricCycles},
		{"missing peak bytes field", `[{"id":"k","cycles":100}]`, MetricPeakBytes},
		{"explicit zero peak bytes", `[{"id":"k","cycles":100,"peak_egraph_bytes":0}]`, MetricPeakBytes},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := CompareBenchMetric([]byte(tc.baseline),
				[]T1Row{{Kernel: Kernel{ID: "k"}, Cycles: 500, PeakEGraphBytes: 1 << 20}},
				0.15, tc.metric)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 1 || rows[0].Status != CompareNoBaseline {
				t.Fatalf("rows = %+v, want one no-baseline row", rows)
			}
			if rows[0].Delta != 0 {
				t.Errorf("no-baseline delta = %v, want 0", rows[0].Delta)
			}
			if n := CountRegressions(rows); n != 0 {
				t.Errorf("no-baseline counted as regression: %d", n)
			}
		})
	}
}

// TestCompareBenchMetricPeakBytes runs the gate on the memory metric and
// checks regressions and improvements are judged on bytes, not cycles.
func TestCompareBenchMetricPeakBytes(t *testing.T) {
	baseline := []byte(`[
		{"id": "steady", "cycles": 1, "peak_egraph_bytes": 1000000},
		{"id": "bloated", "cycles": 1, "peak_egraph_bytes": 1000000},
		{"id": "slimmer", "cycles": 1, "peak_egraph_bytes": 1000000}
	]`)
	rows, err := CompareBenchMetric(baseline, []T1Row{
		// Cycles regress wildly everywhere; the memory gate must not care.
		{Kernel: Kernel{ID: "steady"}, Cycles: 9999, PeakEGraphBytes: 1_100_000},
		{Kernel: Kernel{ID: "bloated"}, Cycles: 9999, PeakEGraphBytes: 1_600_000},
		{Kernel: Kernel{ID: "slimmer"}, Cycles: 9999, PeakEGraphBytes: 500_000},
	}, 0.25, MetricPeakBytes)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]CompareStatus{
		"steady":  CompareOK,
		"bloated": CompareRegressed,
		"slimmer": CompareImproved,
	}
	for _, r := range rows {
		if r.Status != want[r.Name] {
			t.Errorf("%s: status %s, want %s (delta %+.2f)", r.Name, r.Status, want[r.Name], r.Delta)
		}
	}
	out := FormatCompareMetric(rows, 0.25, MetricPeakBytes.Name)
	for _, want := range []string{
		"== peak e-graph bytes regression check (tolerance +25%) ==",
		"FAIL: 1 kernel(s) regressed beyond 25%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatCompare(t *testing.T) {
	rows := compareFixture(t)
	for _, tc := range []struct {
		tolerance float64
		want      []string
	}{
		{0.15, []string{
			"slower", "+20.0%", "regressed",
			"faster", "-30.0%", "improved",
			"FAIL: 1 kernel(s) regressed beyond 15%",
		}},
		// Sub-percent tolerances keep their digits.
		{0.005, []string{
			"(tolerance +0.5%)",
			"FAIL: 1 kernel(s) regressed beyond 0.5%",
		}},
	} {
		out := FormatCompareMetric(rows, tc.tolerance, MetricCycles.Name)
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("tolerance %v: missing %q in:\n%s", tc.tolerance, want, out)
			}
		}
	}
	ok := FormatCompareMetric(rows[:1], 0.15, MetricCycles.Name)
	if !strings.Contains(ok, "OK: no kernel regressed") {
		t.Errorf("clean run lacks OK verdict:\n%s", ok)
	}
}
