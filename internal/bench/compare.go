package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
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

// CompareRow is one gated metric's verdict: a kernel's cycles or peak
// bytes in the diosbench gates, a serving metric in the diosload SLO gate.
type CompareRow struct {
	Name     string
	Baseline float64
	Current  float64
	// Delta is the relative metric change, (current-baseline)/baseline;
	// positive means worse. Zero for new/missing/no-baseline rows. Budget
	// rows carry the absolute excess current-budget instead.
	Delta  float64
	Status CompareStatus
	// Budget marks rows judged against an absolute budget (shown in the
	// baseline column) rather than a baseline value.
	Budget bool
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
	cur := make(map[string]float64, len(rows))
	for _, r := range rows {
		cur[r.Kernel.ID] = float64(metric.Current(r))
	}

	var out []CompareRow
	seen := map[string]bool{}
	for _, b := range base {
		seen[b.ID] = true
		bv := float64(metric.Baseline(b))
		c, ok := cur[b.ID]
		if !ok {
			out = append(out, CompareRow{Name: b.ID, Baseline: bv, Status: CompareMissing})
			continue
		}
		row := CompareRow{Name: b.ID, Baseline: bv, Current: c}
		row.Delta, row.Status = JudgeDelta(bv, c, tolerance)
		out = append(out, row)
	}
	var fresh []CompareRow
	for id, c := range cur {
		if !seen[id] {
			fresh = append(fresh, CompareRow{Name: id, Current: c, Status: CompareNew})
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Name < fresh[j].Name })
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

// Gate frames one gate's verdict table; Format renders it. Every gate in
// the repo prints through it, so they share one layout.
type Gate struct {
	Heading string // shown as "== Heading =="
	Label   string // header of the row-name column ("kernel", "metric")
	Fail    string // verdict after "FAIL: <n> " when any row regressed
	OK      string // verdict after "OK: " when none did
}

// Format renders rows as an aligned table under the heading, closed by
// the one-line verdict.
func (g Gate) Format(rows []CompareRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", g.Heading)
	w := len(g.Label)
	for _, r := range rows {
		w = max(w, len(r.Name))
	}
	fmt.Fprintf(&b, "%-*s  %12s  %12s  %9s  %s\n", w, g.Label, "baseline", "current", "delta", "status")
	for _, r := range rows {
		base, cur := trimFloat(r.Baseline, 3), trimFloat(r.Current, 3)
		delta := fmt.Sprintf("%+.1f%%", r.Delta*100)
		switch r.Status {
		case CompareNew, CompareNoBaseline:
			base, delta = "-", "-"
		case CompareMissing:
			cur, delta = "-", "-"
		}
		if r.Budget {
			base, delta = "<="+base, fmt.Sprintf("%+.3f", r.Delta)
		}
		fmt.Fprintf(&b, "%-*s  %12s  %12s  %9s  %s\n", w, r.Name, base, cur, delta, r.Status)
	}
	if n := CountRegressions(rows); n > 0 {
		fmt.Fprintf(&b, "FAIL: %d %s\n", n, g.Fail)
	} else {
		fmt.Fprintf(&b, "OK: %s\n", g.OK)
	}
	return b.String()
}

// FormatCompareMetric renders one metric's comparison as a table with a
// one-line verdict.
func FormatCompareMetric(rows []CompareRow, tolerance float64, metricName string) string {
	tol := Pct(tolerance) + "%"
	return Gate{
		Heading: fmt.Sprintf("%s regression check (tolerance +%s)", metricName, tol),
		Label:   "kernel",
		Fail:    "kernel(s) regressed beyond " + tol,
		OK:      "no kernel regressed beyond " + tol,
	}.Format(rows)
}

// Pct renders a 0..1 ratio as a percentage number with at most two
// decimals and no trailing zeros: 0.15 → "15", 0.005 → "0.5".
func Pct(ratio float64) string { return trimFloat(ratio*100, 2) }

// trimFloat renders v rounded to at most places decimals, without
// trailing zeros.
func trimFloat(v float64, places int) string {
	p := math.Pow10(places)
	return strconv.FormatFloat(math.Round(v*p)/p, 'f', -1, 64)
}
