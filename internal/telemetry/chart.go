package telemetry

import (
	"fmt"
	"strings"
)

// SVG line-chart machinery for the compile report's trajectory, cost and
// memory curves: each is a *lineChart handed to the linechart partial of
// report.tmpl.html. All geometry is computed in Go; the partial only
// places precomputed coordinates, so rendered charts need no JavaScript —
// hover detail rides on SVG <title> tooltips.

// lineChart is the template-facing model of one chart: canvas and plot
// geometry, axis labels, grid lines, and one or more series of
// pre-projected points. Build one with newLineChart/AddSeries.
type lineChart struct {
	W, H             int
	PlotX, PlotY     int
	PlotW, PlotH     int
	Series           []lineSeries
	YMax, YMid, YMin string
	XMin, XMax       string
	XLabel           string
	GridYs           []int
	Legend           bool
}

// lineSeries is one polyline of a lineChart, with optional per-point dots
// carrying tooltip titles and a direct label at the last point.
type lineSeries struct {
	Name   string
	Class  string // CSS class carrying the series color (s1, s2)
	Points string // SVG polyline points
	Dots   []chartDot
	Last   string // last value, for the direct label
	LastX  int
	LastY  int
}

// chartDot is one hoverable point of a series.
type chartDot struct {
	X, Y  int
	Title string
}

// chartBuilder pairs the template-facing lineChart with the value scales
// used while plotting points into it.
type chartBuilder struct {
	*lineChart
	xMin, xMax, yMin, yMax float64
}

// chart canvas constants, shared by every line chart.
const (
	chartW  = 680
	chartH  = 220
	padL    = 56
	padR    = 76 // room for the direct label on the last point
	padT    = 14
	padB    = 26
	maxDots = 48 // beyond this, dots crowd; the polyline alone reads better
)

// newLineChart starts a chart whose x axis spans xs (which must be
// non-empty and ascending: iteration numbers).
func newLineChart(xs []float64) *chartBuilder {
	c := &chartBuilder{lineChart: &lineChart{
		W: chartW, H: chartH,
		PlotX: padL, PlotY: padT,
		PlotW: chartW - padL - padR, PlotH: chartH - padT - padB,
	}}
	c.xMin, c.xMax = xs[0], xs[len(xs)-1]
	if c.xMax == c.xMin {
		c.xMax = c.xMin + 1
	}
	c.XMin = trimFloat(c.xMin)
	c.XMax = trimFloat(c.xMax)
	return c
}

// SetYRange fixes the y axis to [lo, hi] and places the grid lines; call it
// before AddSeries.
func (c *chartBuilder) SetYRange(lo, hi float64) {
	if hi <= lo {
		hi = lo + 1
	}
	c.yMin, c.yMax = lo, hi
	c.YMax = compactNum(hi)
	c.YMid = compactNum(lo + (hi-lo)/2)
	c.YMin = compactNum(lo)
	c.GridYs = []int{
		c.PlotY,
		c.PlotY + c.PlotH/2,
		c.PlotY + c.PlotH,
	}
}

// AddSeries projects (xs, ys) into the plot area as one polyline. class
// names the CSS color class (s1, s2); title renders the tooltip for
// point i.
func (c *chartBuilder) AddSeries(name, class string, xs, ys []float64, title func(int) string) {
	sx := func(x float64) int {
		return c.PlotX + int(float64(c.PlotW)*(x-c.xMin)/(c.xMax-c.xMin))
	}
	sy := func(y float64) int {
		return c.PlotY + c.PlotH - int(float64(c.PlotH)*(y-c.yMin)/(c.yMax-c.yMin))
	}
	var b strings.Builder
	s := lineSeries{Name: name, Class: class}
	for i := range xs {
		x, y := sx(xs[i]), sy(ys[i])
		fmt.Fprintf(&b, "%d,%d ", x, y)
		if len(xs) <= maxDots {
			s.Dots = append(s.Dots, chartDot{X: x, Y: y, Title: title(i)})
		}
	}
	s.Points = strings.TrimSpace(b.String())
	s.Last = compactNum(ys[len(ys)-1])
	s.LastX = sx(xs[len(xs)-1]) + 6
	s.LastY = sy(ys[len(ys)-1]) + 4
	c.Series = append(c.Series, s)
}
