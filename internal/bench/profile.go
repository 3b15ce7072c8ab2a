package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"diospyros/internal/sim"
	"diospyros/internal/telemetry"
)

// matchOnly implements the -only filter: a comma-separated list of
// substrings, matching kernels whose ID contains any of them. The empty
// filter matches everything.
func matchOnly(only, id string) bool {
	if only == "" {
		return true
	}
	for _, part := range strings.Split(only, ",") {
		if part = strings.TrimSpace(part); part != "" && strings.Contains(id, part) {
			return true
		}
	}
	return false
}

// FormatCycleProfiles renders each kernel's simulated cycle breakdown —
// top-5 opcode hotspots, per-slot issue, and stall causes (the diosbench
// -profile view).
func FormatCycleProfiles(rows []T1Row) string {
	var b strings.Builder
	for _, r := range rows {
		if r.Profile == nil {
			continue
		}
		fmt.Fprintf(&b, "-- %s: %d cycles --\n%s", r.Kernel.ID, r.Cycles, r.Profile.Format(5))
	}
	return b.String()
}

// NamedTraces pairs each row's compilation trace with its kernel ID for
// the multi-kernel exporters (-trace-out, -metrics-out).
func NamedTraces(rows []T1Row) []telemetry.NamedTrace {
	out := make([]telemetry.NamedTrace, 0, len(rows))
	for _, r := range rows {
		if r.Trace != nil {
			out = append(out, telemetry.NamedTrace{Name: r.Kernel.ID, Trace: r.Trace})
		}
	}
	return out
}

// benchJSONRow is one kernel in the -bench-json artifact: simulated cycles
// plus the profiler's breakdown, uploaded by the CI smoke job and readable
// by cmd/diosdiff.
type benchJSONRow struct {
	ID      string       `json:"id"`
	Cycles  int64        `json:"cycles"`
	Profile *sim.Profile `json:"profile,omitempty"`
	// PeakEGraphBytes is the e-graph's peak logical footprint during the
	// compile. Omitted when zero; diosdiff reads a zero peak as absent.
	PeakEGraphBytes int64 `json:"peak_egraph_bytes,omitempty"`
}

// BenchJSON renders per-kernel cycle counts, peak e-graph bytes, and
// profiles as JSON.
func BenchJSON(rows []T1Row) ([]byte, error) {
	out := make([]benchJSONRow, len(rows))
	for i, r := range rows {
		out[i] = benchJSONRow{ID: r.Kernel.ID, Cycles: r.Cycles, Profile: r.Profile,
			PeakEGraphBytes: r.PeakEGraphBytes}
	}
	return json.MarshalIndent(out, "", "  ")
}
