package bench

import (
	"fmt"
	"slices"
	"strings"

	diospyros "diospyros"
)

// This file is the per-kernel × per-target comparison: every suite kernel
// is compiled once (one saturation search) for several machine targets at
// once, each target's program is simulated, and its outputs are checked
// against the lifted specification. It both powers `diosbench -targets`
// and serves as the cross-width semantic parity harness.

// TargetRow is one kernel's per-target comparison: Cycles[i] and Costs[i]
// belong to Targets[i] of the run.
type TargetRow struct {
	Kernel  Kernel
	Targets []string
	Cycles  []int64
	Costs   []float64
}

// Best returns the index of the fastest target for this kernel (fewest
// simulated cycles; ties go to the earlier target), or -1 if no target
// simulated.
func (r TargetRow) Best() int {
	best := -1
	for i, c := range r.Cycles {
		if c > 0 && (best == -1 || c < r.Cycles[best]) {
			best = i
		}
	}
	return best
}

// TargetTable compiles every admitted kernel once per the multi-target
// path — a single saturation search, one extraction per target of
// opt.Opts.Targets — simulates each target's program on the shared inputs,
// and checks every target's outputs against the lifted specification.
func TargetTable(opt Options) ([]TargetRow, error) {
	targets := opt.Opts.Targets
	if len(targets) == 0 {
		return nil, fmt.Errorf("bench: no targets")
	}
	return each(opt, opt.kernels(), func(_ int, c suiteCase) (TargetRow, string, error) {
		res, err := diospyros.CompileContext(opt.ctx(), c.lifted, opt.Opts)
		if err != nil {
			return TargetRow{}, "", fmt.Errorf("diospyros: %w", err)
		}
		if len(res.Targets) != len(targets) {
			return TargetRow{}, "", fmt.Errorf("got %d target results, want %d", len(res.Targets), len(targets))
		}
		row := TargetRow{
			Kernel:  c.k,
			Targets: slices.Clone(targets),
			Cycles:  make([]int64, len(targets)),
			Costs:   make([]float64, len(targets)),
		}
		var parts []string
		for i, tr := range res.Targets {
			got, sres, err := res.RunTarget(tr.Target, c.inputs, nil)
			if err != nil {
				return TargetRow{}, "", fmt.Errorf("%s run: %w", tr.Target, err)
			}
			if err := check(tr.Target, c.want, got); err != nil {
				return TargetRow{}, "", err
			}
			row.Costs[i], row.Cycles[i] = tr.Cost, sres.Cycles
			parts = append(parts, fmt.Sprintf("%s=%d", tr.Target, sres.Cycles))
		}
		return row, strings.Join(parts, " "), nil
	})
}

// FormatTargetTable renders the per-kernel × per-target cycle table, with
// each kernel's winning target in the final column.
func FormatTargetTable(rows []TargetRow) string {
	if len(rows) == 0 {
		return "(no kernels)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "kernel")
	for _, name := range rows[0].Targets {
		fmt.Fprintf(&b, " %12s", name)
	}
	fmt.Fprintf(&b, "  %s\n", "best")
	wins := make([]int, len(rows[0].Targets))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s", r.Kernel.ID)
		for _, c := range r.Cycles {
			fmt.Fprintf(&b, " %12d", c)
		}
		if best := r.Best(); best >= 0 {
			wins[best]++
			fmt.Fprintf(&b, "  %s", r.Targets[best])
		}
		fmt.Fprintln(&b)
	}
	var parts []string
	for i, name := range rows[0].Targets {
		parts = append(parts, fmt.Sprintf("%s %d", name, wins[i]))
	}
	fmt.Fprintf(&b, "wins: %s\n", strings.Join(parts, ", "))
	return b.String()
}
