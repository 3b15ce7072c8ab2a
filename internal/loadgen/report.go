package loadgen

import (
	"bytes"
	_ "embed"
	"fmt"
	"strings"
	"time"

	"diospyros/internal/telemetry"
)

// The HTML soak report: a self-contained page for one SoakResult —
// latency-over-time lanes (p50/p99), the throughput and shed/error
// timeline, whole-run percentile tiles, and per-phase / per-kernel /
// per-cache breakdowns. The page is a body on the shared telemetry page
// (telemetry.NewPage), so this report, the diospyros -report compile
// report and the diosdiff autopsy share one skeleton, stylesheet and chart
// partial.

//go:embed soak.tmpl.html
var soakTmplSrc string

var soakTmpl = telemetry.NewPage("soak", soakTmplSrc, nil)

// soakView is the template model.
type soakView struct {
	Res         *SoakResult
	GeneratedAt string
	Latency     *telemetry.LineChart // p50/p99 over time
	Throughput  *telemetry.LineChart // rps + sheds/s + errors/s over time
	Phases      []phaseRow
}

type phaseRow struct {
	Phase string
	LatencyMS
}

// Report renders the soak report page for res.
func Report(res *SoakResult) ([]byte, error) {
	v := &soakView{
		Res:         res,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	if len(res.Series) >= 2 {
		v.Latency = latencyChart(res.Series)
		v.Throughput = throughputChart(res.Series)
	}
	// Phases in header order, not map order.
	for _, name := range res.PhaseOrder {
		if p, ok := res.Phases[name]; ok {
			v.Phases = append(v.Phases, phaseRow{Phase: name, LatencyMS: p})
		}
	}
	var b bytes.Buffer
	if err := soakTmpl.Execute(&b, v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// latencyChart plots per-window p50 and p99 in milliseconds.
func latencyChart(series []Window) *telemetry.LineChart {
	xs := make([]float64, len(series))
	p50 := make([]float64, len(series))
	p99 := make([]float64, len(series))
	hi := 0.0
	for i, w := range series {
		xs[i], p50[i], p99[i] = w.T, w.P50, w.P99
		hi = max(hi, w.P99)
	}
	c := telemetry.NewLineChart(xs)
	c.XLabel = "seconds into run"
	c.SetYRange(0, hi*1.05)
	c.AddSeries("p50 ms", "s1", xs, p50, func(i int) string {
		return fmt.Sprintf("t=%.0fs: p50 %.1f ms", xs[i], p50[i])
	})
	c.AddSeries("p99 ms", "s2", xs, p99, func(i int) string {
		return fmt.Sprintf("t=%.0fs: p99 %.1f ms", xs[i], p99[i])
	})
	c.Legend = true
	return c.LineChart
}

// throughputChart plots per-window completion rate with the shed and error
// rates on the same lane — overload shows as the orange line rising into
// the blue one.
func throughputChart(series []Window) *telemetry.LineChart {
	xs := make([]float64, len(series))
	rps := make([]float64, len(series))
	sheds := make([]float64, len(series))
	errs := make([]float64, len(series))
	hi := 0.0
	for i, w := range series {
		width := 1.0
		if i+1 < len(series) {
			width = series[i+1].T - w.T
		} else if i > 0 {
			width = w.T - series[i-1].T
		}
		xs[i] = w.T
		rps[i] = w.RPS
		sheds[i] = float64(w.Sheds) / width
		errs[i] = float64(w.Errors) / width
		hi = max(hi, rps[i], sheds[i], errs[i])
	}
	c := telemetry.NewLineChart(xs)
	c.XLabel = "seconds into run"
	c.SetYRange(0, hi*1.05)
	c.AddSeries("completed/s", "s1", xs, rps, func(i int) string {
		return fmt.Sprintf("t=%.0fs: %.1f req/s", xs[i], rps[i])
	})
	c.AddSeries("shed/s", "s2", xs, sheds, func(i int) string {
		return fmt.Sprintf("t=%.0fs: %.1f shed/s", xs[i], sheds[i])
	})
	c.AddSeries("errors/s", "s3", xs, errs, func(i int) string {
		return fmt.Sprintf("t=%.0fs: %.1f errors/s", xs[i], errs[i])
	})
	c.Legend = true
	return c.LineChart
}

// kernelList joins the config's kernel names for the report header.
func (v *soakView) KernelList() string { return strings.Join(v.Res.Config.Kernels, ", ") }

// URLList joins the replica URLs for the report header.
func (v *soakView) URLList() string { return strings.Join(v.Res.Config.URLs, ", ") }
