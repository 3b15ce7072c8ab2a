package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	diospyros "diospyros"
)

func TestRegressedIDsFilterAndDedup(t *testing.T) {
	cycleRows := []CompareRow{
		{Name: "ok-kernel", Status: CompareOK},
		{Name: "slow", Status: CompareRegressed},
		{Name: "fast", Status: CompareImproved},
		{Name: "fresh", Status: CompareNew},
		{Name: "gone", Status: CompareMissing},
		{Name: "old-format", Status: CompareNoBaseline},
	}
	memRows := []CompareRow{
		{Name: "slow", Status: CompareRegressed},    // dup across gates
		{Name: "bloated", Status: CompareRegressed}, // second gate's own find
	}
	got := RegressedIDs(cycleRows, memRows)
	if len(got) != 2 || got[0] != "slow" || got[1] != "bloated" {
		t.Fatalf("RegressedIDs = %v, want [slow bloated]", got)
	}
	if ids := RegressedIDs(); ids != nil {
		t.Errorf("no verdicts = %v, want nil", ids)
	}
}

// TestRegressedIDsBoundaries drives the forensics trigger through
// JudgeDelta's boundary conditions: exactly-at-tolerance deltas, zero
// baselines with nonzero current values, and improvements must never spawn
// a forensics capture.
func TestRegressedIDsBoundaries(t *testing.T) {
	baseline := []byte(`[
		{"id": "at-tolerance", "cycles": 100},
		{"id": "zero-baseline", "cycles": 0},
		{"id": "improved", "cycles": 100}
	]`)
	rows, err := CompareBenchMetric(baseline, []T1Row{
		{Kernel: Kernel{ID: "at-tolerance"}, Cycles: 115}, // exactly +15%
		{Kernel: Kernel{ID: "zero-baseline"}, Cycles: 50}, // no-baseline
		{Kernel: Kernel{ID: "improved"}, Cycles: 70},      // -30%
	}, 0.15, MetricCycles)
	if err != nil {
		t.Fatal(err)
	}
	if ids := RegressedIDs(rows); len(ids) != 0 {
		t.Fatalf("boundary rows spawned forensics for %v:\n%+v", ids, rows)
	}
	// Crossing the boundary by one cycle does trigger.
	rows, err = CompareBenchMetric(baseline, []T1Row{
		{Kernel: Kernel{ID: "at-tolerance"}, Cycles: 116},
	}, 0.15, MetricCycles)
	if err != nil {
		t.Fatal(err)
	}
	if ids := RegressedIDs(rows); len(ids) != 1 || ids[0] != "at-tolerance" {
		t.Fatalf("past-tolerance row not captured: %v", ids)
	}
}

// TestForensicsNoRegressionsNoArtifacts pins the negative side of the gate
// hook: without regressed IDs, Forensics must not even create the directory.
func TestForensicsNoRegressionsNoArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "forensics")
	paths, err := Forensics(FOptions{Dir: dir}, nil, nil)
	if err != nil || paths != nil {
		t.Fatalf("Forensics(no ids) = %v, %v; want nil, nil", paths, err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("forensics dir created despite no regressions")
	}
}

// TestForensicsCapturesRegressedKernel runs the full gate-failure autopsy on
// a doctored baseline: the regressed kernel is recompiled journal-armed and
// both diff artifacts land on disk, attributing the cycle delta.
func TestForensicsCapturesRegressedKernel(t *testing.T) {
	const id = "MatMul 2x2 2x2"
	baseline := []byte(`[{"id": "` + id + `", "cycles": 4, "peak_egraph_bytes": 1}]`)
	dir := t.TempDir()
	var logs []string
	paths, err := Forensics(FOptions{
		Dir:           dir,
		Opts:          diospyros.Options{Timeout: time.Minute},
		BaselineLabel: "doctored.json",
		Progress:      func(s string) { logs = append(logs, s) },
	}, baseline, []string{id})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths = %v, want a .diff.json and a .diff.html", paths)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "matmul-2x2-2x2.diff.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Schema      string `json:"schema"`
		Divergences []struct {
			Kind   string `json:"kind"`
			Detail string `json:"detail"`
		} `json:"divergences"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if d.Schema != "diospyros/diff/v1" {
		t.Errorf("diff schema = %q", d.Schema)
	}
	var cycles bool
	for _, dv := range d.Divergences {
		if dv.Kind == "cycles" && strings.Contains(dv.Detail, "4 → ") {
			cycles = true
		}
	}
	if !cycles {
		t.Errorf("no cycles divergence against the doctored baseline:\n%s", raw)
	}
	page, err := os.ReadFile(filepath.Join(dir, "matmul-2x2-2x2.diff.html"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "doctored.json") {
		t.Error("HTML report does not name the baseline")
	}
	if len(logs) == 0 || !strings.Contains(logs[len(logs)-1], id) {
		t.Errorf("progress lines = %v, want a capture note for %s", logs, id)
	}
}

func TestForensicsSkipsUnknownKernels(t *testing.T) {
	baseline := []byte(`[{"id": "MatMul 2x2 2x2", "cycles": 4}]`)
	dir := t.TempDir()
	var logs []string
	paths, err := Forensics(FOptions{
		Dir:      dir,
		Progress: func(s string) { logs = append(logs, s) },
	}, baseline, []string{"NoSuchKernel", "2DConv 3x3 2x2"}) // 2DConv not in baseline
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 {
		t.Fatalf("paths = %v, want none", paths)
	}
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "not in the suite") || !strings.Contains(joined, "not in the baseline") {
		t.Errorf("skip notes missing from %v", logs)
	}
}

func TestKernelSlug(t *testing.T) {
	cases := map[string]string{
		"MatMul 2x2 2x2": "matmul-2x2-2x2",
		"2DConv 3x3 2x2": "2dconv-3x3-2x2",
		"QProd":          "qprod",
		"  odd--name  ":  "odd-name",
	}
	for id, want := range cases {
		if got := kernelSlug(id); got != want {
			t.Errorf("kernelSlug(%q) = %q, want %q", id, got, want)
		}
	}
}
