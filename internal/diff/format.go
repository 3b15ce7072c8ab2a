package diff

import (
	"fmt"
	"strings"
	"time"
)

// Format renders the diff as the human-readable autopsy printed by
// diosdiff without -json/-html: the divergence list first (the verdict),
// then the informational stage waterfall and the diverged sections.
func (d *Diff) Format() string {
	var b strings.Builder
	header := fmt.Sprintf("diff %s → %s", d.BaseLabel, d.CurLabel)
	if d.Kernel != "" {
		header = fmt.Sprintf("diff %s: %s → %s", d.Kernel, d.BaseLabel, d.CurLabel)
	}
	b.WriteString(header)
	b.WriteByte('\n')

	for _, n := range d.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}

	if d.Empty() {
		b.WriteString("runs are equivalent: no semantic divergence\n")
	} else {
		fmt.Fprintf(&b, "%d divergences:\n", len(d.Divergences))
		for _, dv := range d.Divergences {
			fmt.Fprintf(&b, "  [%s] %s\n", dv.Kind, dv.Detail)
		}
	}

	if len(d.Stages) > 0 {
		b.WriteString("\nstage waterfall (wall time, informational):\n")
		nameW := len("stage")
		for _, s := range d.Stages {
			if len(s.Stage) > nameW {
				nameW = len(s.Stage)
			}
		}
		fmt.Fprintf(&b, "  %-*s %14s %14s %9s\n", nameW, "stage", "baseline", "current", "delta")
		for _, s := range d.Stages {
			switch s.OnlyIn {
			case "baseline":
				fmt.Fprintf(&b, "  %-*s %14v %14s %9s\n", nameW, s.Stage,
					roundNS(s.BaseNS), "—", "")
			case "current":
				fmt.Fprintf(&b, "  %-*s %14s %14v %9s\n", nameW, s.Stage,
					"—", roundNS(s.CurNS), "")
			default:
				fmt.Fprintf(&b, "  %-*s %14v %14v %+8.1f%%\n", nameW, s.Stage,
					roundNS(s.BaseNS), roundNS(s.CurNS), 100*s.DeltaPct)
			}
		}
	}

	if d.Rules != nil {
		var diverged int
		for _, r := range d.Rules {
			if r.Diverged() {
				diverged++
			}
		}
		if diverged > 0 {
			b.WriteString("\ndiverged rules:\n")
			for _, r := range d.Rules {
				if !r.Diverged() {
					continue
				}
				fmt.Fprintf(&b, "  %s: matches %d → %d, applied %d → %d, nodes+ %d → %d, bans %d → %d",
					r.Rule, r.Matches.Base, r.Matches.Cur, r.Applied.Base, r.Applied.Cur,
					r.NewNodes.Base, r.NewNodes.Cur, r.Bans.Base, r.Bans.Cur)
				if r.SplitIteration > 0 {
					fmt.Fprintf(&b, " (from iteration %d)", r.SplitIteration)
				}
				b.WriteByte('\n')
			}
		}
	}

	if d.Extraction != nil && len(d.Extraction.Flips) > 0 {
		b.WriteString("\nextraction flips:\n")
		for _, f := range d.Extraction.Flips {
			fmt.Fprintf(&b, "  class %d: %s (%.2f) → %s (%.2f)\n",
				f.Class, f.BaseWinner, f.BaseCost, f.CurWinner, f.CurCost)
		}
	}

	if d.Memory != nil && d.Memory.PeakBytes.Diverged() {
		fmt.Fprintf(&b, "\npeak e-graph footprint: %d → %d bytes (%+d)\n",
			d.Memory.PeakBytes.Base, d.Memory.PeakBytes.Cur, d.Memory.PeakBytes.Delta())
	}

	if d.Cycles != nil && d.Cycles.Total.Diverged() &&
		d.Cycles.Total.Base != 0 && d.Cycles.Total.Cur != 0 {
		fmt.Fprintf(&b, "\nsimulated cycles: %d → %d (%+d)\n",
			d.Cycles.Total.Base, d.Cycles.Total.Cur, d.Cycles.Total.Delta())
	}

	return b.String()
}

// roundNS renders a nanosecond reading as a rounded duration.
func roundNS(ns int64) time.Duration {
	return time.Duration(ns).Round(time.Microsecond)
}
