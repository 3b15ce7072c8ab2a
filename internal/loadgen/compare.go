package loadgen

import (
	"encoding/json"
	"fmt"

	"diospyros/internal/bench"
)

// The serving SLO gate: diosload -compare -slo judges a fresh SoakResult
// against a committed baseline (BENCH_SERVE_PR8.json) the same way the
// diosbench cycle/memory gates judge Table 1 — shared bench.JudgeDelta
// verdicts, a table, a one-line verdict, and a non-zero exit on regression.
// Latency percentiles and throughput are judged relative to the baseline;
// error and shed rates are judged against absolute budgets, because "we
// errored 3x more than a near-zero baseline" is noise while "we errored on
// more than 1% of requests" is an SLO.

// SLO is the gate's tolerances.
type SLO struct {
	// LatencyTolerance is the allowed relative worsening of each gated
	// latency percentile (0.25 = +25% fails). It also bounds relative
	// throughput loss.
	LatencyTolerance float64
	// ErrorBudget is the maximum acceptable error rate
	// ((errors+timeouts+aborts)/requests), absolute.
	ErrorBudget float64
	// ShedBudget is the maximum acceptable shed rate (sheds/requests),
	// absolute.
	ShedBudget float64
	// LatencyFloorMS treats every percentile below it as "fast enough":
	// both sides of a comparison are clamped up to the floor before
	// judging, so sub-floor jitter (a cache-hit p50 moving from 0.5 ms to
	// 3 ms under CPU contention) never trips the gate, while a genuine
	// jump past the floor still does. 0 disables the floor.
	LatencyFloorMS float64
}

// DefaultSLO is the gate CI runs: generous enough for shared-runner noise,
// tight enough to catch a real serving regression.
var DefaultSLO = SLO{LatencyTolerance: 0.50, ErrorBudget: 0.01, ShedBudget: 0.05, LatencyFloorMS: 5}

// Compare judges current against a JSON-encoded baseline SoakResult under
// the SLO.
func Compare(baseline []byte, current *SoakResult, slo SLO) ([]bench.CompareRow, error) {
	var base SoakResult
	if err := json.Unmarshal(baseline, &base); err != nil {
		return nil, fmt.Errorf("bad baseline: %w", err)
	}
	if base.Schema != "" && base.Schema != SoakSchema {
		return nil, fmt.Errorf("baseline schema %q, want %q", base.Schema, SoakSchema)
	}
	return CompareResults(&base, current, slo), nil
}

// CompareResults judges current against a parsed baseline under the SLO.
func CompareResults(base, current *SoakResult, slo SLO) []bench.CompareRow {
	rows := []bench.CompareRow{}
	latency := []struct {
		name string
		b, c float64
	}{
		{"p50 latency ms", base.Latency.P50, current.Latency.P50},
		{"p90 latency ms", base.Latency.P90, current.Latency.P90},
		{"p99 latency ms", base.Latency.P99, current.Latency.P99},
		{"p99.9 latency ms", base.Latency.P999, current.Latency.P999},
	}
	for _, m := range latency {
		delta, status := bench.JudgeDelta(
			max(m.b, slo.LatencyFloorMS), max(m.c, slo.LatencyFloorMS), slo.LatencyTolerance)
		rows = append(rows, bench.CompareRow{
			Name: m.name, Baseline: m.b, Current: m.c, Delta: delta, Status: status,
		})
	}

	// Throughput: higher is better, so the verdict flips.
	delta, status := bench.JudgeDelta(base.ThroughputRPS, current.ThroughputRPS, slo.LatencyTolerance)
	switch status {
	case bench.CompareRegressed:
		status = bench.CompareImproved
	case bench.CompareImproved:
		status = bench.CompareRegressed
	}
	rows = append(rows, bench.CompareRow{
		Name: "throughput rps", Baseline: base.ThroughputRPS,
		Current: current.ThroughputRPS, Delta: delta, Status: status,
	})

	// Absolute budgets: the baseline column carries the budget itself.
	for _, m := range []struct {
		name   string
		budget float64
		rate   float64
	}{
		{"error rate", slo.ErrorBudget, current.ErrorRate},
		{"shed rate", slo.ShedBudget, current.ShedRate},
	} {
		st := bench.CompareOK
		if m.rate > m.budget {
			st = bench.CompareRegressed
		}
		rows = append(rows, bench.CompareRow{
			Name: m.name, Baseline: m.budget, Current: m.rate,
			Delta: m.rate - m.budget, Status: st, Budget: true,
		})
	}
	return rows
}

// Gate frames the SLO verdict table (bench.Gate.Format renders it), in
// the same layout as the diosbench gates.
func (s SLO) Gate() bench.Gate {
	return bench.Gate{
		Heading: fmt.Sprintf("serving SLO check (latency +%s%%, error budget %.2f%%, shed budget %.2f%%)",
			bench.Pct(s.LatencyTolerance), s.ErrorBudget*100, s.ShedBudget*100),
		Label: "metric",
		Fail:  "serving metric(s) outside the SLO",
		OK:    "serving SLO held",
	}
}
