package telemetry

import (
	"fmt"
	"strings"
)

// Reusable SVG line-chart machinery, shared by every HTML report (the
// -report compile report, the diosdiff autopsy, the diosload soak page):
// each passes a *LineChart to the linechart partial of the shared page
// (page.tmpl.html, see NewPage). All geometry is computed in Go; the
// partial only places precomputed coordinates, so rendered charts need no
// JavaScript — hover detail rides on SVG <title> tooltips.

// LineChart is the template-facing model of one chart: canvas and plot
// geometry, axis labels, grid lines, and one or more series of
// pre-projected points. Build one with NewLineChart/AddSeries.
type LineChart struct {
	W, H             int
	PlotX, PlotY     int
	PlotW, PlotH     int
	Series           []LineSeries
	YMax, YMid, YMin string
	XMin, XMax       string
	XLabel           string
	GridYs           []int
	Legend           bool
}

// LineSeries is one polyline of a LineChart, with optional per-point dots
// carrying tooltip titles and a direct label at the last point.
type LineSeries struct {
	Name   string
	Class  string // CSS class carrying the series color (s1, s2, s3)
	Points string // SVG polyline points
	Dots   []ChartDot
	Last   string // last value, for the direct label
	LastX  int
	LastY  int
}

// ChartDot is one hoverable point of a series.
type ChartDot struct {
	X, Y  int
	Title string
}

// ChartBuilder pairs the template-facing LineChart with the value scales
// used while plotting points into it.
type ChartBuilder struct {
	*LineChart
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

// NewLineChart starts a chart whose x axis spans xs (which must be
// non-empty and ascending; typically iteration numbers or seconds).
func NewLineChart(xs []float64) *ChartBuilder {
	c := &ChartBuilder{LineChart: &LineChart{
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
func (c *ChartBuilder) SetYRange(lo, hi float64) {
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
// names the CSS color class (s1, s2, s3); title renders the tooltip for
// point i.
func (c *ChartBuilder) AddSeries(name, class string, xs, ys []float64, title func(int) string) {
	sx := func(x float64) int {
		return c.PlotX + int(float64(c.PlotW)*(x-c.xMin)/(c.xMax-c.xMin))
	}
	sy := func(y float64) int {
		return c.PlotY + c.PlotH - int(float64(c.PlotH)*(y-c.yMin)/(c.yMax-c.yMin))
	}
	var b strings.Builder
	s := LineSeries{Name: name, Class: class}
	for i := range xs {
		x, y := sx(xs[i]), sy(ys[i])
		fmt.Fprintf(&b, "%d,%d ", x, y)
		if len(xs) <= maxDots {
			s.Dots = append(s.Dots, ChartDot{X: x, Y: y, Title: title(i)})
		}
	}
	s.Points = strings.TrimSpace(b.String())
	s.Last = compactNum(ys[len(ys)-1])
	s.LastX = sx(xs[len(xs)-1]) + 6
	s.LastY = sy(ys[len(ys)-1]) + 4
	c.Series = append(c.Series, s)
}
