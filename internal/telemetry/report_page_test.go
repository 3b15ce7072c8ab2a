package telemetry_test

import (
	"os"
	"strings"
	"testing"

	diospyros "diospyros"
	"diospyros/internal/egraph"
	"diospyros/internal/telemetry"
)

// TestRenderReport renders the report of a live journal-armed matmul2x2
// compile, simulated for the cycle waterfall, and checks it is one complete
// self-contained page: doctype to </html>, no surviving template action,
// one stylesheet holding the chart rules once, and every section drawn.
func TestRenderReport(t *testing.T) {
	src, err := os.ReadFile("../../testdata/matmul2x2.dios")
	if err != nil {
		t.Fatal(err)
	}
	res, err := diospyros.CompileSource(string(src), diospyros.Options{Journal: egraph.NewJournal()})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]float64{}
	for _, d := range res.Kernel.Inputs {
		inputs[d.Name] = make([]float64, d.Len())
	}
	_, sres, err := res.Run(inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err = telemetry.RenderReport(&b, telemetry.ReportData{
		Title: res.Kernel.Name,
		Trace: res.Trace,
		Cycle: diospyros.ReportCycleProfile(sres.Profile),
	})
	if err != nil {
		t.Fatal(err)
	}
	page := b.String()

	if !strings.HasPrefix(page, "<!DOCTYPE html>") || !strings.HasSuffix(strings.TrimSpace(page), "</html>") {
		t.Error("not a complete page from doctype to </html>")
	}
	if strings.Contains(page, "{{") {
		t.Error("unrendered template action survives")
	}
	if n := strings.Count(page, "<style>"); n != 1 {
		t.Errorf("%d <style> blocks, want one", n)
	}
	if n := strings.Count(page, "polyline.s1 {"); n != 1 {
		t.Errorf("chart CSS appears %d times, want once", n)
	}
	for _, want := range []string{
		res.Kernel.Name,
		"Phases",
		"Saturation trajectory",
		"Best-cost trajectory",
		"Memory trajectory",
		"Peak footprint breakdown",
		"Rule attribution",
		"Extraction decisions",
		"Simulator cycle waterfall",
		`<polyline class="s1"`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("report missing %q", want)
		}
	}
}
