package diff

import (
	"bytes"
	_ "embed"
	"fmt"
	"html/template"
	"time"

	"diospyros/internal/telemetry"
)

// The side-by-side HTML autopsy: a self-contained page for one Diff —
// verdict banner, attributed divergence list, overlaid best-cost and
// e-graph-size trajectories (baseline vs current on one chart), the stage
// waterfall, and the diverged rule/extraction/memory/cycle tables. The page
// is a body on the shared telemetry page (telemetry.NewPage), so this
// report, the compile report and the soak report share one skeleton,
// stylesheet and chart partial.

//go:embed diff.tmpl.html
var diffTmplSrc string

var diffTmpl = telemetry.NewPage("diff", diffTmplSrc, template.FuncMap{
	// dur renders a nanosecond reading as a rounded duration string.
	"dur": func(ns int64) string { return roundNS(ns).String() },
})

// reportView is the template model; everything is precomputed in Go so the
// template stays logic-free.
type reportView struct {
	D           *Diff
	GeneratedAt string
	CostChart   *telemetry.LineChart // baseline vs current best-cost trajectories
	SizeChart   *telemetry.LineChart // baseline vs current node-count trajectories
	Diverged    []RuleDelta          // rules with semantic deltas, pre-filtered
	Agreeing    int                  // rules with identical counts
	DivergedOps []OpDelta            // opcode rows with semantic deltas
}

// Report renders the self-contained HTML autopsy for d. base and cur are
// the same Inputs given to Compare; their traces feed the trajectory
// charts (sections a side lacks are simply omitted).
func Report(d *Diff, base, cur Input) ([]byte, error) {
	v := &reportView{
		D:           d,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		CostChart: overlayChart(d, base.Trace, cur.Trace, costSeries, func(x, y float64) string {
			return fmt.Sprintf("iteration %.0f: cost %.2f", x, y)
		}),
		SizeChart: overlayChart(d, base.Trace, cur.Trace, nodeSeries, func(x, y float64) string {
			return fmt.Sprintf("iteration %.0f: %.0f nodes", x, y)
		}),
	}
	for _, r := range d.Rules {
		if r.Diverged() {
			v.Diverged = append(v.Diverged, r)
		} else {
			v.Agreeing++
		}
	}
	if d.Cycles != nil {
		for _, o := range d.Cycles.Ops {
			if o.Count.Diverged() || o.Cycles.Diverged() || o.Stall.Diverged() {
				v.DivergedOps = append(v.DivergedOps, o)
			}
		}
	}
	var b bytes.Buffer
	if err := diffTmpl.Execute(&b, v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// overlayChart overlays one trajectory of the two runs on one lane,
// baseline in series-1 and current in series-2, so the split iteration is
// visible as the point where the lines part. series extracts the
// trajectory from a trace; title renders a point's tooltip. Nil when
// neither side has two points to draw.
func overlayChart(d *Diff, base, cur *telemetry.Trace,
	series func(*telemetry.Trace) (xs, ys []float64), title func(x, y float64) string) *telemetry.LineChart {
	bXs, bYs := series(base)
	cXs, cYs := series(cur)
	if len(bXs) < 2 && len(cXs) < 2 {
		return nil
	}
	hi := 0.0
	for _, y := range append(append([]float64{}, bYs...), cYs...) {
		hi = max(hi, y)
	}
	c := telemetry.NewLineChart(longer(bXs, cXs))
	c.XLabel = "iteration"
	c.SetYRange(0, hi*1.05)
	for _, s := range []struct {
		label, class string
		xs, ys       []float64
	}{{d.BaseLabel, "s1", bXs, bYs}, {d.CurLabel, "s2", cXs, cYs}} {
		if len(s.xs) >= 2 {
			c.AddSeries(s.label, s.class, s.xs, s.ys, func(i int) string { return title(s.xs[i], s.ys[i]) })
		}
	}
	c.Legend = true
	return c.LineChart
}

// costSeries extracts the best-cost trajectory as chart series.
func costSeries(t *telemetry.Trace) (xs, ys []float64) {
	if t == nil {
		return nil, nil
	}
	for _, g := range costSamples(t.Iterations) {
		xs = append(xs, float64(g.Iteration))
		ys = append(ys, *g.BestCost)
	}
	return xs, ys
}

// nodeSeries extracts the node-count trajectory as chart series.
func nodeSeries(t *telemetry.Trace) (xs, ys []float64) {
	if t == nil {
		return nil, nil
	}
	for _, g := range t.Iterations {
		xs = append(xs, float64(g.Iteration))
		ys = append(ys, float64(g.Nodes))
	}
	return xs, ys
}

// longer returns whichever x-axis spans more points, so the chart covers
// both trajectories.
func longer(a, b []float64) []float64 {
	if len(a) >= len(b) {
		return a
	}
	return b
}
