package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Phase is one entry of the phase path, the one nested, dot-separated
// vocabulary every timing surface names time with (DESIGN.md §7): queue,
// cache and serialize at the request level (diosserve), then compile,
// compile.<stage> per stage span, and compile.saturate.{index,match,apply,
// rebuild} for the saturation loop's steps summed over the iterations. A
// child's time is part of its parent's.
type Phase struct {
	Path     string
	Duration time.Duration
	// AllocBytes is the heap allocated during the phase (runtime TotalAlloc
	// delta). The saturation-loop phases are not alloc-metered and carry 0.
	AllocBytes uint64
}

// saturatePrefix parents the saturation-loop phases.
const saturatePrefix = "compile.saturate."

// metered reports whether the phase carries an allocation reading.
func (p Phase) metered() bool { return !strings.HasPrefix(p.Path, saturatePrefix) }

// Phases returns the trace's phase list, parents before children: compile
// (the trace's Duration and AllocBytes), one compile.<stage> per span in
// execution order, and — when the trace has iteration gauges — the four
// loop steps summed over them, right after the saturate span.
func (t *Trace) Phases() []Phase {
	var steps []Phase
	if len(t.Iterations) > 0 {
		steps = []Phase{{Path: saturatePrefix + "index"}, {Path: saturatePrefix + "match"},
			{Path: saturatePrefix + "apply"}, {Path: saturatePrefix + "rebuild"}}
		for _, g := range t.Iterations {
			steps[0].Duration += g.Index
			steps[1].Duration += g.Match
			steps[2].Duration += g.Apply
			steps[3].Duration += g.Rebuild
		}
	}
	out := make([]Phase, 0, len(t.Stages)+5)
	out = append(out, Phase{Path: "compile", Duration: t.Duration, AllocBytes: t.AllocBytes})
	for _, s := range t.Stages {
		out = append(out, Phase{Path: "compile." + s.Name, Duration: s.Duration, AllocBytes: s.AllocBytes})
		if s.Name == "saturate" {
			out, steps = append(out, steps...), nil
		}
	}
	return append(out, steps...) // gauges without a saturate span
}

// phaseRow is one row of the phase table that the -trace text and the
// -report page render.
type phaseRow struct {
	Path, Duration, Alloc string
	SharePct              float64 // of the compile's wall time
}

// phaseRows renders the trace's phase list as table rows.
func (t *Trace) phaseRows() []phaseRow {
	var rows []phaseRow
	for _, p := range t.Phases() {
		row := phaseRow{Path: p.Path, Duration: p.Duration.Round(time.Microsecond).String(), Alloc: "-"}
		if p.metered() {
			row.Alloc = fmt.Sprintf("%.2f MB", float64(p.AllocBytes)/1e6)
		}
		if t.Duration > 0 {
			row.SharePct = 100 * float64(p.Duration) / float64(t.Duration)
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatServerTiming renders phases in Server-Timing syntax, in list order,
// with durations in milliseconds at microsecond resolution:
// "queue;dur=0.012, cache;dur=0.004, compile;dur=412.331, ...".
func FormatServerTiming(ps []Phase) string {
	var b []byte
	for i, p := range ps {
		if i > 0 {
			b = append(b, ", "...)
		}
		us := max(p.Duration.Round(time.Microsecond).Microseconds(), 0)
		b = fmt.Appendf(b, "%s;dur=%d.%03d", p.Path, us/1000, us%1000)
	}
	return string(b)
}

// ParseServerTiming parses a Server-Timing value into its phases, in
// header order, durations rounded to the microsecond. Entries without a
// parseable dur are skipped; nil means the header was absent or carried
// none.
func ParseServerTiming(h string) []Phase {
	var out []Phase
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		ms, err := strconv.ParseFloat(dur, 64)
		if err != nil {
			continue
		}
		out = append(out, Phase{Path: name, Duration: time.Duration(math.Round(ms*1e3)) * time.Microsecond})
	}
	return out
}
