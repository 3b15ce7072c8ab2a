package diospyros_test

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	diospyros "diospyros"
	"diospyros/internal/diff"
	"diospyros/internal/egraph"
	"diospyros/internal/loadgen"
	"diospyros/internal/telemetry"
)

// TestReportsShareOnePage renders the three HTML reports — the compile
// report (diospyros -report), the diosdiff autopsy and the diosload soak
// page — and checks they are one page skeleton: every <style> opens with
// the same shared block holding the whole palette and the chart rules, the
// chart rules appear once, and no template action survives.
func TestReportsShareOnePage(t *testing.T) {
	src, err := os.ReadFile("testdata/matmul2x2.dios")
	if err != nil {
		t.Fatal(err)
	}
	res, err := diospyros.CompileSource(string(src), diospyros.Options{Journal: egraph.NewJournal()})
	if err != nil {
		t.Fatal(err)
	}
	var compile bytes.Buffer
	if err := telemetry.RenderReport(&compile, telemetry.ReportData{Title: res.Kernel.Name, Trace: res.Trace}); err != nil {
		t.Fatal(err)
	}

	in := diff.Input{Label: "live", Kernel: res.Kernel.Name, Trace: res.Trace}
	selfDiff, err := diff.Report(diff.Compare(in, in), in, in)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile("BENCH_SERVE_PR8.json")
	if err != nil {
		t.Fatal(err)
	}
	var soak loadgen.SoakResult
	if err := json.Unmarshal(raw, &soak); err != nil {
		t.Fatal(err)
	}
	rows := loadgen.CompareResults(&soak, &soak, loadgen.DefaultSLO)
	soakPage, err := loadgen.Report(&soak, loadgen.DefaultSLO.Gate().Format(rows))
	if err != nil {
		t.Fatal(err)
	}

	pages := map[string]string{"compile": compile.String(), "diff": string(selfDiff), "soak": string(soakPage)}
	styles := map[string]string{}
	shared := ""
	first := true
	for name, page := range pages {
		if strings.Contains(page, "{{") {
			t.Errorf("%s: unrendered template action survives", name)
		}
		if !strings.HasPrefix(page, "<!DOCTYPE html>") || !strings.Contains(page, "</html>") {
			t.Errorf("%s: not a complete page", name)
		}
		if n := strings.Count(page, "polyline.s1 {"); n != 1 {
			t.Errorf("%s: chart CSS appears %d times, want once", name, n)
		}
		_, rest, ok := strings.Cut(page, "<style>")
		style, _, ok2 := strings.Cut(rest, "</style>")
		if !ok || !ok2 || strings.Count(page, "<style>") != 1 {
			t.Fatalf("%s: want exactly one <style> block", name)
		}
		styles[name] = style
		if first {
			shared, first = style, false
			continue
		}
		n := 0
		for n < len(shared) && n < len(style) && shared[n] == style[n] {
			n++
		}
		shared = shared[:n]
	}

	// The common opening block must carry the chart rules and declare every
	// custom property any page declares: one palette, not three.
	if !strings.Contains(shared, "polyline.s1 {") {
		t.Errorf("chart CSS is not part of the shared block:\n%s", shared)
	}
	decl := regexp.MustCompile(`--[a-z0-9-]+:`)
	for name, style := range styles {
		for _, v := range decl.FindAllString(style, -1) {
			if !strings.Contains(shared, v) {
				t.Errorf("%s declares %s outside the shared palette", name, strings.TrimSuffix(v, ":"))
			}
		}
	}
}
