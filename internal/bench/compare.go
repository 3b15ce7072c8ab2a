package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Regression gate: diosbench -compare checks a fresh run's metrics against
// a committed -bench-json baseline (BENCH_PR7.json at the repo root) and
// fails when any kernel regresses beyond a relative tolerance. The gate is
// metric-generic (CompareMetric): CI runs it once on simulated cycles and
// once on peak e-graph bytes, with separate tolerances (-tolerance,
// -mem-tolerance). This is what keeps the CI bench job an actual regression
// test instead of an artifact dump.

// CompareStatus classifies one kernel's metric against the baseline.
type CompareStatus string

const (
	// CompareOK: within tolerance of the baseline.
	CompareOK CompareStatus = "ok"
	// CompareRegressed: worse than baseline beyond tolerance — the only
	// status that fails the gate.
	CompareRegressed CompareStatus = "regressed"
	// CompareImproved: better than baseline beyond tolerance. Worth
	// noticing (the baseline is stale) but never a failure.
	CompareImproved CompareStatus = "improved"
	// CompareNew: present in this run but absent from the baseline.
	CompareNew CompareStatus = "new"
	// CompareMissing: in the baseline but not this run (e.g. an -only
	// filter). Informational only.
	CompareMissing CompareStatus = "missing"
	// CompareNoBaseline: the baseline row exists but carries a zero value
	// for this metric (an older-format baseline, or a kernel that never
	// produced the metric). A relative delta against zero is meaningless,
	// so the row is informational, like CompareNew.
	CompareNoBaseline CompareStatus = "no-baseline"
)

// CompareMetric names one gated metric and extracts it from baseline and
// current rows.
type CompareMetric struct {
	// Name labels the gate's output ("cycle", "peak e-graph bytes").
	Name string
	// Baseline reads the metric from a parsed baseline row.
	Baseline func(benchJSONRow) int64
	// Current reads the metric from a fresh Table 1 row.
	Current func(T1Row) int64
}

// MetricCycles gates on simulated cycles (the original -compare behavior).
var MetricCycles = CompareMetric{
	Name:     "cycle",
	Baseline: func(b benchJSONRow) int64 { return b.Cycles },
	Current:  func(r T1Row) int64 { return r.Cycles },
}

// MetricPeakBytes gates on the peak e-graph logical footprint. The
// footprint is a deterministic function of the search (DESIGN.md §13), so
// it can be committed to a baseline and gated like cycles.
var MetricPeakBytes = CompareMetric{
	Name:     "peak e-graph bytes",
	Baseline: func(b benchJSONRow) int64 { return b.PeakEGraphBytes },
	Current:  func(r T1Row) int64 { return r.PeakEGraphBytes },
}

// JudgeDelta is the gate's core judgment, shared by every comparer in the
// repo (cycle and memory gates here, the serving SLO gate in
// internal/loadgen): it classifies a current value against a baseline under
// a relative tolerance, returning the relative delta ((current-baseline)/
// baseline; positive means worse) and its status. A non-positive baseline
// yields CompareNoBaseline with a zero delta — a relative delta against
// zero is meaningless, so such rows are informational, never failures.
func JudgeDelta(baseline, current, tolerance float64) (float64, CompareStatus) {
	if baseline <= 0 {
		return 0, CompareNoBaseline
	}
	delta := (current - baseline) / baseline
	switch {
	case delta > tolerance:
		return delta, CompareRegressed
	case delta < -tolerance:
		return delta, CompareImproved
	}
	return delta, CompareOK
}

// CompareRow is one kernel's verdict.
type CompareRow struct {
	ID       string
	Baseline int64
	Current  int64
	// Delta is the relative metric change, (current-baseline)/baseline;
	// positive means worse. Zero for new/missing/no-baseline rows.
	Delta  float64
	Status CompareStatus
}

// CompareBenchMetric judges one metric of rows against a -bench-json
// baseline with the given relative tolerance (0.15 means +15% fails). Rows are returned in baseline
// order, then new kernels, then baseline kernels missing from this run.
// Baseline rows whose metric is zero get CompareNoBaseline (informational):
// a relative delta against zero would be ±Inf, and an older baseline that
// predates the metric must not fail the gate.
func CompareBenchMetric(baseline []byte, rows []T1Row, tolerance float64, metric CompareMetric) ([]CompareRow, error) {
	if tolerance < 0 {
		return nil, fmt.Errorf("negative tolerance %v", tolerance)
	}
	var base []benchJSONRow
	if err := json.Unmarshal(baseline, &base); err != nil {
		return nil, fmt.Errorf("bad baseline: %w", err)
	}
	cur := make(map[string]int64, len(rows))
	for _, r := range rows {
		cur[r.Kernel.ID] = metric.Current(r)
	}

	var out []CompareRow
	seen := map[string]bool{}
	for _, b := range base {
		seen[b.ID] = true
		bv := metric.Baseline(b)
		c, ok := cur[b.ID]
		if !ok {
			out = append(out, CompareRow{ID: b.ID, Baseline: bv, Status: CompareMissing})
			continue
		}
		row := CompareRow{ID: b.ID, Baseline: bv, Current: c}
		row.Delta, row.Status = JudgeDelta(float64(bv), float64(c), tolerance)
		out = append(out, row)
	}
	var fresh []CompareRow
	for id, c := range cur {
		if !seen[id] {
			fresh = append(fresh, CompareRow{ID: id, Current: c, Status: CompareNew})
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].ID < fresh[j].ID })
	return append(out, fresh...), nil
}

// CountRegressions returns how many rows fail the gate.
func CountRegressions(rows []CompareRow) int {
	n := 0
	for _, r := range rows {
		if r.Status == CompareRegressed {
			n++
		}
	}
	return n
}

// FormatCompareMetric renders one metric's comparison as a table with a
// one-line verdict.
func FormatCompareMetric(rows []CompareRow, tolerance float64, metricName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s regression check (tolerance %+.0f%%) ==\n", metricName, tolerance*100)
	w := len("kernel")
	for _, r := range rows {
		if len(r.ID) > w {
			w = len(r.ID)
		}
	}
	fmt.Fprintf(&b, "%-*s  %12s  %12s  %8s  %s\n", w, "kernel", "baseline", "current", "delta", "status")
	for _, r := range rows {
		delta := fmt.Sprintf("%+.1f%%", r.Delta*100)
		if r.Status == CompareNew || r.Status == CompareMissing || r.Status == CompareNoBaseline {
			delta = "-"
		}
		fmt.Fprintf(&b, "%-*s  %12s  %12s  %8s  %s\n",
			w, r.ID, metricCell(r.Baseline), metricCell(r.Current), delta, r.Status)
	}
	if n := CountRegressions(rows); n > 0 {
		fmt.Fprintf(&b, "FAIL: %d kernel(s) regressed beyond %.0f%%\n", n, tolerance*100)
	} else {
		fmt.Fprintf(&b, "OK: no kernel regressed beyond %.0f%%\n", tolerance*100)
	}
	return b.String()
}

func metricCell(v int64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}
