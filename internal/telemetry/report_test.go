package telemetry

import (
	"strings"
	"testing"
	"time"
)

func reportTrace() *Trace {
	return &Trace{
		Stages: []Span{
			{Name: "saturate", Duration: 80 * time.Millisecond, AllocBytes: 4 << 20},
			{Name: "extract", Duration: 20 * time.Millisecond, AllocBytes: 1 << 20},
		},
		Iterations: []IterationGauge{
			{Iteration: 1, Nodes: 100, Classes: 60, BestCost: costOf(300), Rules: []RuleStep{
				{Rule: "vec-mac", Matches: 40, Applied: 30, NewNodes: 500, Duration: time.Millisecond},
				{Rule: "assoc-add-l", Matches: 50, Applied: 10, NewNodes: 20},
			}},
			{Iteration: 2, Nodes: 400, Classes: 150, BestCost: costOf(120), Rules: []RuleStep{
				{Rule: "assoc-add-l", Matches: 850, BannedUntil: 4, Bans: 1},
			}},
			{Iteration: 3, Nodes: 900, Classes: 300, BestCost: costOf(96.5)},
		},
		StopReason: "saturated",
		Duration:   110 * time.Millisecond,
		Extraction: &ExtractionTrace{
			TotalCost: 96.5, Classes: 12, Contested: 3,
			Decisions: []ExtractionDecision{
				{Class: 7, Winner: "(VecMAC /3)", WinnerCost: 13, WinnerOwn: 1,
					RunnerUp: "(VecAdd /2)", RunnerUpCost: 15.5, Margin: 2.5, Candidates: 3},
				{Class: 9, Winner: "(Vec /4)", WinnerCost: 4, WinnerOwn: 4, Candidates: 1},
			},
			Contiguous: 4, Shuffles: 2, Gathers: 1,
		},
	}
}

func TestRenderReport(t *testing.T) {
	var b strings.Builder
	err := RenderReport(&b, ReportData{
		Title:    "conv3x5",
		Subtitle: "testdata/conv3x5.dios",
		Trace:    reportTrace(),
		Cycle: &CycleProfile{
			Total: 100, OperandStall: 10, MemoryStall: 5, BranchBubble: 2,
			Rows: []CycleRow{
				{Name: "VMAC", Count: 10, Cycles: 60, Stall: 8},
				{Name: "VLD", Count: 6, Cycles: 39, Stall: 7},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	html := b.String()
	for _, want := range []string{
		"conv3x5",
		"Saturation trajectory",
		"Best-cost trajectory",
		"Rule attribution",
		"vec-mac",
		"Backoff ban timeline",
		"assoc-add-l",          // the banned rule is named
		"Extraction decisions", // decision section present
		"(VecMAC /3)",          // winner
		"(VecAdd /2)",          // runner-up with cost breakdown
		"Simulator cycle waterfall",
		"VMAC",
		"</html>",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// No un-rendered template actions may survive.
	if strings.Contains(html, "{{") {
		t.Error("report contains unexecuted template actions")
	}
	// The ban row carries timeline geometry.
	if !strings.Contains(html, `class="banlane"`) {
		t.Error("report missing ban timeline lane")
	}
}

// A minimal trace (no journal, no extraction, no sim) must still render:
// reports for failed or scalar compiles degrade to the stage table.
func TestRenderReportMinimal(t *testing.T) {
	var b strings.Builder
	err := RenderReport(&b, ReportData{Trace: &Trace{
		Stages:   []Span{{Name: "lift", Duration: time.Millisecond}},
		Duration: time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	html := b.String()
	if strings.Contains(html, "Rule attribution") || strings.Contains(html, "cycle waterfall") {
		t.Error("sections without data should be omitted")
	}
	if !strings.Contains(html, "</html>") {
		t.Error("incomplete document")
	}
}

func TestRenderReportNeedsTrace(t *testing.T) {
	if err := RenderReport(&strings.Builder{}, ReportData{}); err == nil {
		t.Fatal("want error for nil trace")
	}
}

// HTML in rule names and kernel titles must be escaped, not interpreted.
func TestRenderReportEscapes(t *testing.T) {
	tr := reportTrace()
	tr.Iterations[0].Rules[0].Rule = `<script>alert(1)</script>`
	var b strings.Builder
	if err := RenderReport(&b, ReportData{Title: `<b>x</b>`, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	html := b.String()
	if strings.Contains(html, "<script>alert") || strings.Contains(html, "<b>x</b>") {
		t.Error("report failed to escape user-controlled strings")
	}
}

func TestCycleWaterfallGeometry(t *testing.T) {
	v := buildCycleView(&CycleProfile{
		Total: 200,
		Rows: []CycleRow{
			{Name: "a", Cycles: 100, Stall: 20},
			{Name: "b", Cycles: 60, Stall: 0},
			{Name: "c", Cycles: 39, Stall: 39},
		},
	})
	if len(v.Rows) != 3 {
		t.Fatalf("rows = %d", len(v.Rows))
	}
	// Bars tile left to right: each row starts where the previous ended.
	left := 0.0
	for _, r := range v.Rows {
		if r.LeftPct != left {
			t.Errorf("%s: left %.2f, want %.2f", r.Name, r.LeftPct, left)
		}
		left += r.BusyPct + r.StallPct
	}
	if left > 100.001 {
		t.Errorf("waterfall overflows the lane: %.2f%%", left)
	}
}

func TestCompactNum(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0"}, {12, "12"}, {999, "999"}, {12500, "12.5k"}, {3_400_000, "3.4M"},
	} {
		if got := compactNum(tc.in); got != tc.want {
			t.Errorf("compactNum(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
