package diospyros_test

import (
	"bytes"
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

	soakPage, err := loadgen.Report(soakResult())
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

// soakResult is a small overloaded soak run: every section of the soak
// page (latency and throughput charts, phase, per-kernel and per-cache
// tables) has rows to render.
func soakResult() *loadgen.SoakResult {
	lat := func(p50, p99 float64) loadgen.LatencyMS {
		return loadgen.LatencyMS{P50: p50, P90: (p50 + p99) / 2, P99: p99, P999: p99 * 2, Max: p99 * 3, Mean: p50 * 2}
	}
	res := &loadgen.SoakResult{
		Schema: loadgen.SoakSchema,
		Config: loadgen.SoakConfig{
			URLs: []string{"http://localhost:8175"}, Kernels: []string{"dot8", "qr3"},
			Concurrency: 12, DurationSec: 3, CacheBust: 0.5,
		},
		Requests: 3000, ThroughputRPS: 1000, OK: 1500, Sheds: 1495, Errors: 5,
		ErrorRate: 5.0 / 3000, ShedRate: 1495.0 / 3000,
		CacheHits: 1400, CacheMisses: 90, CacheCoalesced: 10, CacheHitRatio: 0.94,
		Latency: lat(0.6, 200), AllLatency: lat(0.3, 140),
		PhaseOrder: []string{"queue", "cache", "compile", "compile.saturate", "serialize"},
		Phases: map[string]loadgen.LatencyMS{
			"queue": lat(0.001, 118), "cache": lat(0.001, 0.005), "compile": lat(0.001, 69),
			"compile.saturate": lat(0.001, 60), "serialize": lat(0.1, 0.6),
		},
		PerKernel: []loadgen.KernelStats{
			{Kernel: "dot8", Requests: 1500, OK: 750, Latency: lat(0.4, 90)},
			{Kernel: "qr3", Requests: 1500, OK: 750, Latency: lat(0.9, 250)},
		},
		PerCache: []loadgen.CacheStats{
			{Outcome: "hit", Requests: 1400, Latency: lat(0.3, 2)},
			{Outcome: "miss", Requests: 90, Latency: lat(40, 250)},
			{Outcome: "coalesced", Requests: 10, Latency: lat(30, 200)},
		},
	}
	for i := range 3 {
		res.Series = append(res.Series, loadgen.Window{
			T: float64(i), RPS: 1000, Requests: 1000, OK: 500, Sheds: 498, Errors: 2,
			P50: 0.6, P99: 200,
		})
	}
	return res
}
