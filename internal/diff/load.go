package diff

import (
	"encoding/json"
	"fmt"

	"diospyros/internal/sim"
	"diospyros/internal/telemetry"
)

// Artifact is one parsed compile artifact: either a single compile trace
// (`diospyros -json` / -trace output) or a per-kernel bench array
// (`diosbench -bench-json` / -json output), normalized to one Input per
// kernel.
type Artifact struct {
	// Label names the artifact in diffs and error messages (usually the
	// file name).
	Label string
	// Inputs holds one entry per kernel, in artifact order. A bare trace
	// artifact has exactly one entry with an empty Kernel.
	Inputs []Input
}

// Find returns the Input for the given kernel ID. An empty ID matches a
// single-entry artifact, the bare-trace case.
func (a *Artifact) Find(kernel string) (Input, bool) {
	if kernel == "" && len(a.Inputs) == 1 {
		return a.Inputs[0], true
	}
	for _, in := range a.Inputs {
		if in.Kernel == kernel {
			return in, true
		}
	}
	return Input{}, false
}

// Kernels lists the kernel IDs present in the artifact, in order.
func (a *Artifact) Kernels() []string {
	out := make([]string, 0, len(a.Inputs))
	for _, in := range a.Inputs {
		out = append(out, in.Kernel)
	}
	return out
}

// artifactRow is the part of one kernel's diosbench row (the -json and
// -bench-json output, one shape) that a diff reads: id, cycles, profile
// and the compile trace.
type artifactRow struct {
	ID      string           `json:"id"`
	Cycles  int64            `json:"cycles"`
	Profile *sim.Profile     `json:"profile"`
	Trace   *telemetry.Trace `json:"trace"`
}

// LoadArtifact parses a compile artifact from its raw bytes. It accepts a
// single trace object or a bench row array, and rejects a row without a
// trace and a trace missing the telemetry.TraceSchema stamp
// (diospyros/trace/v2) or carrying a different one, with an error naming
// what to regenerate — a stale artifact diffing cleanly would be worse
// than no diff.
func LoadArtifact(label string, data []byte) (*Artifact, error) {
	first, ok := firstJSONByte(data)
	if !ok {
		return nil, fmt.Errorf("%s: empty artifact", label)
	}
	a := &Artifact{Label: label}
	switch first {
	case '[':
		var rows []artifactRow
		if err := json.Unmarshal(data, &rows); err != nil {
			return nil, fmt.Errorf("%s: parsing bench rows: %w", label, err)
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("%s: artifact holds no kernel rows", label)
		}
		for _, r := range rows {
			if r.ID == "" {
				return nil, fmt.Errorf("%s: row without a kernel id — not a diosbench artifact", label)
			}
			if err := checkTraceSchema(label, r.ID, r.Trace); err != nil {
				return nil, err
			}
			a.Inputs = append(a.Inputs, Input{
				Label:   label,
				Kernel:  r.ID,
				Trace:   r.Trace,
				Profile: r.Profile,
				Cycles:  r.Cycles,
			})
		}
	case '{':
		var tr telemetry.Trace
		if err := json.Unmarshal(data, &tr); err != nil {
			return nil, fmt.Errorf("%s: parsing compile trace: %w", label, err)
		}
		if err := checkTraceSchema(label, "", &tr); err != nil {
			return nil, err
		}
		a.Inputs = append(a.Inputs, Input{Label: label, Trace: &tr})
	default:
		return nil, fmt.Errorf("%s: unrecognized artifact (expected a trace object or a bench row array)", label)
	}
	return a, nil
}

// checkTraceSchema requires the trace, and its schema stamp.
func checkTraceSchema(label, kernel string, tr *telemetry.Trace) error {
	where := label
	if kernel != "" {
		where = fmt.Sprintf("%s (kernel %s)", label, kernel)
	}
	switch {
	case tr == nil:
		return fmt.Errorf("%s: row carries no compile trace — stale artifact; regenerate it with a build that writes %q",
			where, telemetry.TraceSchema)
	case tr.Schema == telemetry.TraceSchema:
		return nil
	case tr.Schema == "":
		return fmt.Errorf("%s: trace carries no schema stamp — stale artifact; regenerate it with a build that writes %q",
			where, telemetry.TraceSchema)
	default:
		return fmt.Errorf("%s: trace schema %q, want %q — regenerate the artifact with a matching build",
			where, tr.Schema, telemetry.TraceSchema)
	}
}

// firstJSONByte returns the first non-whitespace byte of the payload.
func firstJSONByte(data []byte) (byte, bool) {
	for _, b := range data {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		}
		return b, true
	}
	return 0, false
}
