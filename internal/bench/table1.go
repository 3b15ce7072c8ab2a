package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	diospyros "diospyros"
	"diospyros/internal/egraph"
	"diospyros/internal/sim"
	"diospyros/internal/telemetry"
)

// T1Row is one line of Table 1: per-kernel compilation statistics, read
// off the compilation trace.
type T1Row struct {
	Kernel     Kernel
	Time       time.Duration
	AllocBytes uint64
	Nodes      int
	Classes    int
	Iterations int
	Reason     egraph.StopReason
	TimedOut   bool
	Validated  bool
	// Trace is the full stage/iteration breakdown behind the row.
	Trace *telemetry.Trace
	// Cycles and Profile come from simulating the compiled kernel on
	// random inputs: total simulated cycles and the profiler's breakdown
	// per opcode, issue slot, and stall cause.
	Cycles  int64
	Profile *sim.Profile
	// PeakEGraphBytes is the e-graph's peak logical footprint during the
	// compile (Trace.Memory.PeakBytes) — deterministic, so the artifact
	// ledger (testdata/artifacts.golden) pins it exactly.
	PeakEGraphBytes int64
}

// T1Options parameterizes the Table 1 run.
type T1Options struct {
	Opts     diospyros.Options
	Only     string
	Validate bool
	Progress func(string)
	// Context cancels the run between (and during) kernel compiles.
	// Nil means context.Background().
	Context context.Context
}

// Table1 compiles every suite kernel, reporting compile time and memory
// (the paper's Table 1 columns) plus e-graph statistics. All numbers come
// from the per-compilation telemetry trace rather than being recomputed.
func Table1(opt T1Options) ([]T1Row, error) {
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	opts := opt.Opts
	opts.Validate = opt.Validate
	var rows []T1Row
	for _, k := range Suite() {
		if !matchOnly(opt.Only, k.ID) {
			continue
		}
		res, err := diospyros.CompileContext(ctx, k.Lift(), opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.ID, err)
		}
		var cycles int64
		var profile *sim.Profile
		if res.Program != nil {
			r := rand.New(rand.NewSource(1))
			_, sres, err := res.Run(k.Inputs(r), nil)
			if err != nil {
				return nil, fmt.Errorf("%s: simulate: %w", k.ID, err)
			}
			cycles, profile = sres.Cycles, sres.Profile
		}
		tr := res.Trace
		nodes, classes := res.Saturation.Nodes, res.Saturation.Classes
		if g, ok := tr.FinalGauge(); ok {
			nodes, classes = g.Nodes, g.Classes
		}
		row := T1Row{
			Kernel:     k,
			Time:       tr.Duration,
			AllocBytes: tr.AllocBytes,
			Nodes:      nodes,
			Classes:    classes,
			Iterations: len(tr.Iterations),
			Reason:     egraph.StopReason(tr.StopReason),
			TimedOut:   !tr.Saturated(),
			Validated:  res.Validated,
			Trace:      tr,
			Cycles:     cycles,
			Profile:    profile,
		}
		if tr.Memory != nil {
			row.PeakEGraphBytes = tr.Memory.PeakBytes
		}
		rows = append(rows, row)
		if opt.Progress != nil {
			opt.Progress(fmt.Sprintf("%-20s %10v %8.1f MB  %7d nodes  %s",
				k.ID, row.Time.Round(time.Millisecond),
				float64(row.AllocBytes)/1e6, row.Nodes, row.Reason))
		}
	}
	return rows, nil
}

// FormatTable1 renders the rows as the paper's Table 1.
func FormatTable1(rows []T1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: benchmark kernels — compilation time and memory\n")
	fmt.Fprintf(&b, "%-22s %-12s %6s %12s %12s %12s %9s %6s %8s %s\n",
		"Benchmark", "Size", "LOC", "Time", "Memory", "E-graph", "E-nodes", "Iters", "Cycles", "Stop")
	for _, r := range rows {
		timeout := ""
		if r.TimedOut {
			timeout = " †"
		}
		fmt.Fprintf(&b, "%-22s %-12s %6d %12v %9.1f MB %9.1f MB %9d %6d %8d %s%s\n",
			r.Kernel.Family, r.Kernel.Size, r.Kernel.RefLOC,
			r.Time.Round(time.Millisecond),
			float64(r.AllocBytes)/1e6, float64(r.PeakEGraphBytes)/1e6,
			r.Nodes, r.Iterations, r.Cycles, r.Reason, timeout)
	}
	b.WriteString("† equality saturation stopped before reaching a fixpoint\n")
	return b.String()
}

// FormatTable1Traces renders the per-kernel stage breakdown behind the
// table (the diosbench -trace view), followed by the simulated cycle
// profile when available.
func FormatTable1Traces(rows []T1Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "-- %s --\n%s", r.Kernel.ID, r.Trace.Format())
		if r.Profile != nil {
			b.WriteString(r.Profile.Format(5))
		}
	}
	return b.String()
}

// t1JSONRow is the machine-readable form of a T1Row.
type t1JSONRow struct {
	ID         string           `json:"id"`
	Family     string           `json:"family"`
	Size       string           `json:"size"`
	RefLOC     int              `json:"ref_loc"`
	TimeNS     int64            `json:"time_ns"`
	AllocBytes uint64           `json:"alloc_bytes"`
	Nodes      int              `json:"nodes"`
	Classes    int              `json:"classes"`
	Iterations int              `json:"iterations"`
	Reason     string           `json:"stop_reason"`
	Validated  bool             `json:"validated,omitempty"`
	Trace      *telemetry.Trace `json:"trace,omitempty"`
	Cycles     int64            `json:"cycles,omitempty"`
	Profile    *sim.Profile     `json:"profile,omitempty"`
	// PeakEGraphBytes is the e-graph's peak logical footprint.
	PeakEGraphBytes int64 `json:"peak_egraph_bytes,omitempty"`
}

// Table1JSON renders the rows (with their traces) as JSON for machine
// consumption (the diosbench -json flag).
func Table1JSON(rows []T1Row) ([]byte, error) {
	out := make([]t1JSONRow, len(rows))
	for i, r := range rows {
		out[i] = t1JSONRow{
			ID: r.Kernel.ID, Family: r.Kernel.Family, Size: r.Kernel.Size,
			RefLOC: r.Kernel.RefLOC, TimeNS: int64(r.Time),
			AllocBytes: r.AllocBytes, Nodes: r.Nodes, Classes: r.Classes,
			Iterations: r.Iterations, Reason: string(r.Reason),
			Validated: r.Validated, Trace: r.Trace,
			Cycles: r.Cycles, Profile: r.Profile,
			PeakEGraphBytes: r.PeakEGraphBytes,
		}
	}
	return json.MarshalIndent(out, "", "  ")
}
