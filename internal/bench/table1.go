package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"diospyros/internal/sim"
	"diospyros/internal/telemetry"
)

// FormatTable1 renders the rows as the paper's Table 1.
func FormatTable1(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: benchmark kernels — compilation time and memory\n")
	fmt.Fprintf(&b, "%-22s %-12s %6s %12s %12s %12s %9s %6s %8s %s\n",
		"Benchmark", "Size", "LOC", "Time", "Memory", "E-graph", "E-nodes", "Iters", "Cycles", "Stop")
	for _, r := range rows {
		timeout := ""
		if !r.Trace.Saturated() {
			timeout = " †"
		}
		fmt.Fprintf(&b, "%-22s %-12s %6d %12v %9.1f MB %9.1f MB %9d %6d %8d %s%s\n",
			r.Kernel.Family, r.Kernel.Size, r.Kernel.RefLOC,
			r.Trace.Duration.Round(time.Millisecond),
			float64(r.Trace.AllocBytes)/1e6, float64(r.PeakEGraphBytes())/1e6,
			r.Nodes, len(r.Trace.Iterations), r.Cycles.Diospyros, r.Trace.StopReason, timeout)
	}
	b.WriteString("† equality saturation stopped before reaching a fixpoint\n")
	return b.String()
}

// FormatTable1Traces renders the per-kernel stage breakdown behind the
// table (the diosbench -trace view), followed by the simulated cycle
// profile when available.
func FormatTable1Traces(rows []Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "-- %s --\n%s", r.Kernel.ID, r.Trace.Format())
		if r.Profile != nil {
			b.WriteString(r.Profile.Format(5))
		}
	}
	return b.String()
}

// t1JSONRow is the machine-readable form of a Row: the -json output and
// the -bench-json artifact, which cmd/diosdiff reads.
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
// consumption (the diosbench -json and -bench-json flags).
func Table1JSON(rows []Row) ([]byte, error) {
	out := make([]t1JSONRow, len(rows))
	for i, r := range rows {
		out[i] = t1JSONRow{
			ID: r.Kernel.ID, Family: r.Kernel.Family, Size: r.Kernel.Size,
			RefLOC: r.Kernel.RefLOC, TimeNS: int64(r.Trace.Duration),
			AllocBytes: r.Trace.AllocBytes, Nodes: r.Nodes, Classes: r.Classes,
			Iterations: len(r.Trace.Iterations), Reason: r.Trace.StopReason,
			Validated: r.Validated, Trace: r.Trace,
			Cycles: r.Cycles.Diospyros, Profile: r.Profile,
			PeakEGraphBytes: r.PeakEGraphBytes(),
		}
	}
	return json.MarshalIndent(out, "", "  ")
}
