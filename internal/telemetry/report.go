package telemetry

import (
	_ "embed"
	"fmt"
	"html/template"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Self-contained HTML report generator (the diospyros -report flag): one
// file, no external assets, rendering the flight-recorder sections of a
// Trace — the saturation trajectory, the per-rule attribution table with
// its Backoff ban timeline, the extraction decision trace — plus the
// simulator cycle profile as a waterfall. All chart geometry is computed
// here in Go; the template only places precomputed coordinates, so the
// output needs no JavaScript (hover detail rides on SVG <title> tooltips
// and every chart has a table twin).

// CycleRow is one opcode's share of a simulated run, in the neutral form
// the report renders (the simulator package converts its profile into this;
// telemetry cannot import it without an import cycle).
type CycleRow struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	Cycles int64  `json:"cycles"`
	Stall  int64  `json:"stall"`
}

// CycleProfile is the cycle attribution of one simulated run: per-opcode
// rows (which sum to Total-1; the startup cycle is unattributed) plus the
// stall totals of the orthogonal cause decomposition.
type CycleProfile struct {
	Total        int64      `json:"total"`
	OperandStall int64      `json:"operand_stall"`
	MemoryStall  int64      `json:"memory_stall"`
	BranchBubble int64      `json:"branch_bubble"`
	Rows         []CycleRow `json:"rows,omitempty"`
}

// ReportData is everything the HTML report renders. Trace is required;
// Cycle is optional (present when the compiled kernel ran on the
// simulator).
type ReportData struct {
	// Title heads the report, typically the kernel name.
	Title string
	// Subtitle is free-form context under the title (e.g. the flag set).
	Subtitle string
	Trace    *Trace
	Cycle    *CycleProfile
	// Generated stamps the report; zero means time.Now at render.
	Generated time.Time
}

//go:embed page.tmpl.html
var pageSrc string

//go:embed report.tmpl.html
var reportBodySrc string

// pageFuncs are the helpers the shared page and its linechart partial
// need, available to every page body.
var pageFuncs = template.FuncMap{
	"add":  func(a, b int) int { return a + b },
	"sub":  func(a, b int) int { return a - b },
	"half": func(a int) int { return a / 2 },
	"addf": func(a, b float64) float64 { return a + b },
	// mulpct renders a 0..1 ratio as a percentage number.
	"mulpct": func(v float64) float64 { return v * 100 },
}

// NewPage parses a report page body on top of the shared page
// (page.tmpl.html): the doctype and head, one palette, the base, table and
// chart stylesheet, and the "linechart" partial, which renders a
// *LineChart. The body defines "title", "body" and optionally "style"
// (page-only CSS appended after the shared rules); funcs adds helpers to
// the shared ones. Executing the result renders one self-contained page.
// It panics if body does not parse, like template.Must.
func NewPage(name, body string, funcs template.FuncMap) *template.Template {
	t := template.Must(template.New(name).Funcs(pageFuncs).Funcs(funcs).Parse(pageSrc))
	return template.Must(t.Parse(body))
}

var reportTmpl = NewPage("report", reportBodySrc, nil)

// RenderReport writes the self-contained HTML report for d to w.
func RenderReport(w io.Writer, d ReportData) error {
	if d.Trace == nil {
		return fmt.Errorf("telemetry: report needs a trace")
	}
	return reportTmpl.Execute(w, buildReportView(d))
}

// --- view model -----------------------------------------------------------
// Everything below precomputes template-ready strings and percentages so
// the template stays free of logic.

type reportView struct {
	Title     string
	Subtitle  string
	Generated string

	Tiles []statTile

	Phases []phaseRow

	Trajectory *LineChart // nodes & classes per iteration
	CostCurve  *LineChart // best extractable cost per iteration
	MemCurve   *LineChart // e-graph logical footprint per iteration

	Rules       []ruleRow
	Bans        []banRow
	HasIterPlot bool
	HasCostPlot bool
	HasMemPlot  bool

	Memory *memoryView

	Extraction *extractionView
	Cycle      *cycleView
}

type statTile struct {
	Label string
	Value string
	Note  string
}

type ruleRow struct {
	Rule     string
	Matches  int
	Applied  int
	NewNodes int
	Duration string
	Bans     int
	BarPct   float64 // NewNodes share of the max row, for the inline bar
}

type banRow struct {
	Rule      string
	Iteration int
	Until     int
	Matches   int
	Bans      int
	// Timeline bar geometry: percentage offsets across the iteration span.
	LeftPct, WidthPct float64
}

// memoryView is the memory lane: the peak logical footprint with its
// per-component breakdown, plus the process-heap sampler's highlights.
type memoryView struct {
	Peak          string
	PeakIteration int
	HeapPeak      string // empty when the heap sampler did not run
	GCCycles      uint64
	Components    []memCompRow
}

type memCompRow struct {
	Name    string
	Entries string
	Bytes   string
	BarPct  float64 // share of the largest component, for the inline bar
}

type extractionView struct {
	TotalCost string
	Classes   int
	Contested int
	Movement  []moveRow
	Decisions []decisionRow
	Truncated int
}

type moveRow struct {
	Kind   string
	Count  int
	BarPct float64
}

type decisionRow struct {
	Class        int
	Winner       string
	WinnerCost   string
	WinnerOwn    string
	RunnerUp     string
	RunnerUpCost string
	Margin       string
	Candidates   int
	Contested    bool
}

type cycleView struct {
	Total        int64
	OperandStall int64
	MemoryStall  int64
	BranchBubble int64
	Rows         []waterRow
	OtherCycles  int64 // rows beyond the cap, folded
}

// waterRow is one bar of the cycle waterfall: each opcode's contribution
// starts where the previous ended, so the bars tile the total run.
type waterRow struct {
	Name     string
	Count    int64
	Cycles   int64
	Stall    int64
	LeftPct  float64 // cumulative offset
	BusyPct  float64 // non-stall width
	StallPct float64 // stall width (drawn after the busy segment)
	SharePct string  // of total cycles, for the label
}

func buildReportView(d ReportData) *reportView {
	t := d.Trace
	gen := d.Generated
	if gen.IsZero() {
		gen = time.Now()
	}
	v := &reportView{
		Title:     d.Title,
		Subtitle:  d.Subtitle,
		Generated: gen.Format("2006-01-02 15:04:05 MST"),
	}
	if v.Title == "" {
		v.Title = "diospyros compile report"
	}

	// Headline tiles.
	v.Tiles = append(v.Tiles, statTile{Label: "compile time",
		Value: t.Duration.Round(time.Microsecond).String()})
	if g, ok := t.FinalGauge(); ok {
		v.Tiles = append(v.Tiles,
			statTile{Label: "iterations", Value: fmt.Sprint(len(t.Iterations))},
			statTile{Label: "e-nodes", Value: fmt.Sprint(g.Nodes)},
			statTile{Label: "e-classes", Value: fmt.Sprint(g.Classes)})
	}
	if t.StopReason != "" {
		v.Tiles = append(v.Tiles, statTile{Label: "stopped", Value: t.StopReason})
	}
	if t.Extraction != nil {
		v.Tiles = append(v.Tiles, statTile{Label: "extracted cost",
			Value: trimFloat(t.Extraction.TotalCost)})
	}
	if d.Cycle != nil {
		v.Tiles = append(v.Tiles, statTile{Label: "sim cycles",
			Value: fmt.Sprint(d.Cycle.Total)})
	}

	v.Phases = t.phaseRows()
	v.Trajectory = buildTrajectory(t.Iterations)
	v.HasIterPlot = v.Trajectory != nil
	v.CostCurve = buildCostCurve(t.Iterations)
	v.HasCostPlot = v.CostCurve != nil
	rules, bans := Attribution(t.Iterations)
	maxNodes := 0
	for _, r := range rules {
		maxNodes = max(maxNodes, r.NewNodes)
	}
	for _, r := range rules {
		pct := 0.0
		if maxNodes > 0 {
			pct = 100 * float64(r.NewNodes) / float64(maxNodes)
		}
		v.Rules = append(v.Rules, ruleRow{
			Rule: r.Rule, Matches: r.Matches, Applied: r.Applied,
			NewNodes: r.NewNodes,
			Duration: r.Duration.Round(time.Microsecond).String(),
			Bans:     r.Bans, BarPct: pct,
		})
	}
	lastIter := len(t.Iterations)
	for _, ban := range bans {
		lastIter = max(lastIter, ban.BannedUntil)
	}
	for _, ban := range bans {
		left, width := 0.0, 0.0
		if lastIter > 1 {
			span := float64(lastIter - 1)
			left = 100 * float64(ban.Iteration-1) / span
			width = 100 * float64(ban.BannedUntil-ban.Iteration) / span
		}
		if width < 2 {
			width = 2 // keep sub-pixel bans visible
		}
		if left+width > 100 {
			left = 100 - width
		}
		v.Bans = append(v.Bans, banRow{
			Rule: ban.Rule, Iteration: ban.Iteration, Until: ban.BannedUntil,
			Matches: ban.Matches, Bans: ban.Bans,
			LeftPct: left, WidthPct: width,
		})
	}

	v.MemCurve = buildMemCurve(t.Iterations)
	v.HasMemPlot = v.MemCurve != nil
	if t.Memory != nil {
		v.Memory = buildMemoryView(t.Memory)
		v.Tiles = append(v.Tiles, statTile{Label: "peak e-graph",
			Value: fmtBytes(t.Memory.PeakBytes),
			Note:  fmt.Sprintf("iteration %d", t.Memory.PeakIteration)})
	}

	if t.Extraction != nil {
		v.Extraction = buildExtractionView(t.Extraction)
	}
	if d.Cycle != nil {
		v.Cycle = buildCycleView(d.Cycle)
	}
	return v
}

func buildTrajectory(gs []IterationGauge) *LineChart {
	if len(gs) < 2 {
		return nil
	}
	xs := make([]float64, len(gs))
	nodes := make([]float64, len(gs))
	classes := make([]float64, len(gs))
	for i, g := range gs {
		xs[i] = float64(g.Iteration)
		nodes[i] = float64(g.Nodes)
		classes[i] = float64(g.Classes)
	}
	c := NewLineChart(xs)
	c.Legend = true
	c.XLabel = "iteration"
	yMax := maxOf(maxOf(0, nodes...), classes...)
	c.SetYRange(0, yMax)
	c.AddSeries("e-nodes", "s1", xs, nodes, func(i int) string {
		return fmt.Sprintf("iteration %d: %d e-nodes", gs[i].Iteration, gs[i].Nodes)
	})
	c.AddSeries("e-classes", "s2", xs, classes, func(i int) string {
		return fmt.Sprintf("iteration %d: %d e-classes", gs[i].Iteration, gs[i].Classes)
	})
	return c.LineChart
}

// buildCostCurve plots the best-cost trajectory from the gauges that carry
// a cost sample; the chart needs two samples.
func buildCostCurve(gs []IterationGauge) *LineChart {
	var xs, ys []float64
	for _, g := range gs {
		if g.BestCost != nil {
			xs = append(xs, float64(g.Iteration))
			ys = append(ys, *g.BestCost)
		}
	}
	if len(xs) < 2 {
		return nil
	}
	c := NewLineChart(xs)
	c.XLabel = "iteration"
	c.SetYRange(0, maxOf(0, ys...))
	c.AddSeries("best cost", "s1", xs, ys, func(i int) string {
		return fmt.Sprintf("iteration %.0f: cost %s", xs[i], trimFloat(ys[i]))
	})
	return c.LineChart
}

// buildMemCurve plots the e-graph's logical footprint per iteration, from
// the per-iteration gauges. Gauges without a byte reading (traces recorded
// before footprint accounting) are skipped; the chart needs two readings.
func buildMemCurve(gs []IterationGauge) *LineChart {
	var xs, ys []float64
	var kept []IterationGauge
	for _, g := range gs {
		if g.Bytes > 0 {
			xs = append(xs, float64(g.Iteration))
			ys = append(ys, float64(g.Bytes))
			kept = append(kept, g)
		}
	}
	if len(xs) < 2 {
		return nil
	}
	c := NewLineChart(xs)
	c.XLabel = "iteration"
	c.SetYRange(0, maxOf(0, ys...))
	c.AddSeries("e-graph bytes", "s1", xs, ys, func(i int) string {
		return fmt.Sprintf("iteration %d: %s", kept[i].Iteration, fmtBytes(kept[i].Bytes))
	})
	return c.LineChart
}

func buildMemoryView(m *MemoryTrace) *memoryView {
	v := &memoryView{
		Peak:          fmtBytes(m.PeakBytes),
		PeakIteration: m.PeakIteration,
		GCCycles:      m.GCCycles,
	}
	if m.HeapPeakBytes > 0 {
		v.HeapPeak = fmtBytes(int64(m.HeapPeakBytes))
	}
	var maxB int64
	for _, c := range m.Components {
		if c.Bytes > maxB {
			maxB = c.Bytes
		}
	}
	for _, c := range m.Components {
		pct := 0.0
		if maxB > 0 {
			pct = 100 * float64(c.Bytes) / float64(maxB)
		}
		v.Components = append(v.Components, memCompRow{
			Name: c.Name, Entries: fmt.Sprint(c.Entries),
			Bytes: fmtBytes(c.Bytes), BarPct: pct,
		})
	}
	return v
}

func buildExtractionView(e *ExtractionTrace) *extractionView {
	v := &extractionView{
		TotalCost: trimFloat(e.TotalCost),
		Classes:   e.Classes,
		Contested: e.Contested,
	}
	moves := []moveRow{
		{Kind: "literal", Count: e.Literal},
		{Kind: "contiguous load", Count: e.Contiguous},
		{Kind: "shuffle (1 array)", Count: e.Shuffles},
		{Kind: "select (2 arrays)", Count: e.Selects},
		{Kind: "gather (many arrays)", Count: e.Gathers},
		{Kind: "scalar lanes", Count: e.ScalarLanes},
	}
	maxMove := 0
	for _, m := range moves {
		if m.Count > maxMove {
			maxMove = m.Count
		}
	}
	for _, m := range moves {
		if m.Count == 0 {
			continue
		}
		m.BarPct = 100 * float64(m.Count) / float64(maxMove)
		v.Movement = append(v.Movement, m)
	}
	for _, d := range e.Decisions {
		row := decisionRow{
			Class:      d.Class,
			Winner:     d.Winner,
			WinnerCost: trimFloat(d.WinnerCost),
			WinnerOwn:  trimFloat(d.WinnerOwn),
			Candidates: d.Candidates,
		}
		if d.RunnerUp != "" {
			row.RunnerUp = d.RunnerUp
			row.RunnerUpCost = trimFloat(d.RunnerUpCost)
			row.Margin = trimFloat(d.Margin)
			row.Contested = true
		}
		v.Decisions = append(v.Decisions, row)
	}
	if e.Contested > len(e.Decisions) {
		v.Truncated = e.Contested - len(e.Decisions)
	}
	return v
}

const waterfallMaxRows = 14

func buildCycleView(p *CycleProfile) *cycleView {
	v := &cycleView{
		Total:        p.Total,
		OperandStall: p.OperandStall,
		MemoryStall:  p.MemoryStall,
		BranchBubble: p.BranchBubble,
	}
	if p.Total <= 0 {
		return v
	}
	rows := append([]CycleRow(nil), p.Rows...)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Cycles > rows[j].Cycles })
	if len(rows) > waterfallMaxRows {
		for _, r := range rows[waterfallMaxRows:] {
			v.OtherCycles += r.Cycles
		}
		rows = rows[:waterfallMaxRows]
	}
	var cum int64
	total := float64(p.Total)
	for _, r := range rows {
		busy := r.Cycles - r.Stall
		if busy < 0 {
			busy = 0
		}
		v.Rows = append(v.Rows, waterRow{
			Name: r.Name, Count: r.Count, Cycles: r.Cycles, Stall: r.Stall,
			LeftPct:  100 * float64(cum) / total,
			BusyPct:  100 * float64(busy) / total,
			StallPct: 100 * float64(r.Stall) / total,
			SharePct: fmt.Sprintf("%.1f%%", 100*float64(r.Cycles)/total),
		})
		cum += r.Cycles
	}
	return v
}

// --- small formatting helpers --------------------------------------------

func maxOf(first float64, rest ...float64) float64 {
	m := first
	for _, v := range rest {
		if v > m {
			m = v
		}
	}
	return m
}

// trimFloat renders a float with up to two decimals, dropping trailing
// zeros ("12", "12.5", "12.25").
func trimFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "∞"
	}
	s := fmt.Sprintf("%.2f", f)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// fmtBytes renders a byte count at a human scale (B, KB, MB).
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// compactNum renders axis labels: 12, 3.4k, 1.2M.
func compactNum(f float64) string {
	abs := math.Abs(f)
	switch {
	case abs >= 1e6:
		return trimFloat(f/1e6) + "M"
	case abs >= 1e4:
		return trimFloat(f/1e3) + "k"
	default:
		return trimFloat(f)
	}
}
