package bench

import (
	"fmt"
	"strings"

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
func FormatCycleProfiles(rows []Row) string {
	var b strings.Builder
	for _, r := range rows {
		if r.Profile == nil {
			continue
		}
		fmt.Fprintf(&b, "-- %s: %d cycles --\n%s", r.Kernel.ID, r.Cycles.Diospyros, r.Profile.Format(5))
	}
	return b.String()
}

// NamedTraces pairs each row's compilation trace with its kernel ID for
// the multi-kernel exporters (-trace-out, -metrics-out).
func NamedTraces(rows []Row) []telemetry.NamedTrace {
	out := make([]telemetry.NamedTrace, len(rows))
	for i, r := range rows {
		out[i] = telemetry.NamedTrace{Name: r.Kernel.ID, Trace: r.Trace}
	}
	return out
}
