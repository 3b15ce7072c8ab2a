package diospyros_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	diospyros "diospyros"
	"diospyros/internal/bench"
	"diospyros/internal/kernel"
	"diospyros/internal/telemetry"
	"diospyros/internal/validate"
)

var update = flag.Bool("update", false, "rewrite testdata/artifacts.golden")

const ledgerPath = "testdata/artifacts.golden"

// ledgerHeader is the golden file's first line, naming its columns.
const ledgerHeader = "# kernel\ttargets\ttarget\tc\tasm\tcost\tcycles\titers\tnodes\tclasses\tpeak_bytes\tstop\tverdict\trules"

// ledgerTargetSets are the target sets every ledger input is compiled at:
// the default target alone, and one shared search for three targets.
var ledgerTargetSets = [][]string{
	{"fg3lite-4"},
	{"fg3lite-4", "fg3lite-8", "scalar"},
}

// TestArtifactLedger recompiles the 21 suite kernels and the testdata
// sources at every ledger target set and diffs one line per (kernel,
// target set, target) against testdata/artifacts.golden: hashes of the C
// and the assembly, cost, simulated cycles, the saturation outcome, peak
// e-graph bytes, the exact validation verdict, and a hash of the
// iteration gauges with every wall-time field zeroed. A change that moves
// any artifact moves a line; the failure names each moved line's changed
// columns with old → new values. Regenerate with go test -run
// ArtifactLedger -update and say which line moved and why.
func TestArtifactLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and validates the suite and testdata sources at two target sets")
	}
	var got []string
	for _, k := range bench.Suite() {
		for _, targets := range ledgerTargetSets {
			res, err := diospyros.Compile(k.Lift(), diospyros.Options{Targets: targets})
			if err != nil {
				t.Fatalf("%s: %v", k.ID, err)
			}
			got = append(got, ledgerLines(k.ID, targets, res)...)
		}
	}
	srcs, err := filepath.Glob("testdata/*.dios")
	if err != nil || len(srcs) == 0 {
		t.Fatalf("testdata sources: %v (found %d)", err, len(srcs))
	}
	for _, path := range srcs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, targets := range ledgerTargetSets {
			res, err := diospyros.CompileSource(string(src), diospyros.Options{Targets: targets})
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			got = append(got, ledgerLines(filepath.Base(path), targets, res)...)
		}
	}

	if *update {
		body := ledgerHeader + "\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(ledgerPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readLedger(t)
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	report := ledgerDiff(want, got)
	if len(report) == 0 {
		report = []string{"the same lines in a different order or multiplicity"}
	}
	t.Errorf("%s does not match the compile (regenerate with -update after a deliberate move):\n  %s",
		ledgerPath, strings.Join(report, "\n  "))
}

// ledgerDiff reports how got differs from want, one entry per line key
// (kernel, target set, target), so an inserted or removed line reports
// once instead of shifting every later line. A moved line names each
// changed column from ledgerHeader with its old → new values.
func ledgerDiff(want, got []string) []string {
	columns := strings.Split(strings.TrimPrefix(ledgerHeader, "# "), "\t")
	wantKeys, wantRows := ledgerIndex(want)
	gotKeys, gotRows := ledgerIndex(got)
	var out []string
	for _, k := range gotKeys {
		w, ok := wantRows[k]
		if !ok {
			out = append(out, k+": only in the compile")
			continue
		}
		g := gotRows[k]
		var moved []string
		for i := range max(len(w), len(g)) {
			if ledgerField(w, i) == ledgerField(g, i) {
				continue
			}
			moved = append(moved, fmt.Sprintf("%s %s → %s",
				ledgerField(columns, i), ledgerField(w, i), ledgerField(g, i)))
		}
		if len(moved) > 0 {
			out = append(out, k+": "+strings.Join(moved, ", "))
		}
	}
	for _, k := range wantKeys {
		if _, ok := gotRows[k]; !ok {
			out = append(out, k+": only in "+ledgerPath)
		}
	}
	return out
}

// ledgerIndex splits lines into columns keyed "kernel targets/target",
// returning the keys in line order.
func ledgerIndex(lines []string) ([]string, map[string][]string) {
	keys := make([]string, len(lines))
	rows := make(map[string][]string, len(lines))
	for i, line := range lines {
		f := strings.Split(line, "\t")
		keys[i] = ledgerField(f, 0) + " " + ledgerField(f, 1) + "/" + ledgerField(f, 2)
		rows[keys[i]] = f
	}
	return keys, rows
}

// ledgerField is field i of f, or "" past its end: lines differ in length
// when a change adds a column.
func ledgerField(f []string, i int) string {
	if i < len(f) {
		return f[i]
	}
	return ""
}

// TestLedgerDiff pins the ledger failure report: keyed by (kernel, target
// set, target), naming each changed column with old → new values.
func TestLedgerDiff(t *testing.T) {
	line := func(kernel, c, cycles string) string {
		return strings.Join([]string{kernel, "fg3lite-4", "fg3lite-4", c, "a1", "12", cycles,
			"4", "90", "40", "1024", "saturated", "exact", "r1"}, "\t")
	}
	base := []string{line("MatMul 2x2 2x2", "c1", "9"), line("QProd", "c2", "30")}
	for _, tc := range []struct {
		name string
		got  []string
		want []string
	}{
		{"identical lines", base, nil},
		{"changed cycles", []string{line("MatMul 2x2 2x2", "c1", "11"), base[1]},
			[]string{"MatMul 2x2 2x2 fg3lite-4/fg3lite-4: cycles 9 → 11"}},
		{"inserted key", []string{base[0], line("DotProduct 8", "c3", "7"), base[1]},
			[]string{"DotProduct 8 fg3lite-4/fg3lite-4: only in the compile"}},
		{"removed key", base[1:],
			[]string{"MatMul 2x2 2x2 fg3lite-4/fg3lite-4: only in " + ledgerPath}},
		{"changed hash", []string{base[0], line("QProd", "c9", "30")},
			[]string{"QProd fg3lite-4/fg3lite-4: c c2 → c9"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := ledgerDiff(base, tc.got); !slices.Equal(got, tc.want) {
				t.Errorf("ledgerDiff = %q, want %q", got, tc.want)
			}
		})
	}
}

// ledgerLines renders one compile's lines, one per target in request order.
func ledgerLines(name string, targets []string, res *diospyros.Result) []string {
	sat := res.Saturation
	inputs := ledgerInputs(res.Kernel)
	var out []string
	for _, tr := range res.Targets {
		asm, cycles := "", "-"
		if tr.Program != nil {
			asm = tr.Program.Disassemble()
			if _, sres, err := res.RunTarget(tr.Target, inputs, nil); err == nil {
				cycles = fmt.Sprint(sres.Cycles)
			}
		}
		out = append(out, strings.Join([]string{
			name, strings.Join(targets, ","), tr.Target,
			digest([]byte(tr.C)), digest([]byte(asm)),
			fmt.Sprint(tr.Cost), cycles,
			fmt.Sprint(sat.Iterations), fmt.Sprint(sat.Nodes), fmt.Sprint(sat.Classes),
			fmt.Sprint(sat.PeakFootprint.Total), string(sat.Reason),
			verdict(res.Kernel, tr), digest(untimedJSON(res.Trace)),
		}, "\t"))
	}
	return out
}

// ledgerInputs draws fixed pseudo-random inputs for every input array.
func ledgerInputs(l *kernel.Lifted) map[string][]float64 {
	r := rand.New(rand.NewSource(1))
	inputs := map[string][]float64{}
	for _, d := range l.Inputs {
		s := make([]float64, d.Len())
		for i := range s {
			s[i] = float64(int(r.Float64()*200-100)) / 10
		}
		inputs[d.Name] = s
	}
	return inputs
}

// verdict is exact translation validation's answer for one target:
// "exact" when proven, "inconclusive" when the exact path gives up.
func verdict(l *kernel.Lifted, tr diospyros.TargetResult) string {
	err := validate.Equivalent(l.Spec, tr.Optimized, l.OutputLen())
	switch {
	case err == nil:
		return "exact"
	case errors.Is(err, validate.ErrInconclusive):
		return "inconclusive"
	default:
		return "failed"
	}
}

// untimedJSON is the JSON of the trace's iteration gauges with every
// wall-time field zeroed: what the search did, not how long it took.
func untimedJSON(tr *telemetry.Trace) []byte {
	raw, err := json.Marshal(telemetry.Untimed(tr.Iterations))
	if err != nil {
		panic(err)
	}
	return raw
}

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// readLedger returns the golden file's lines without the header comment.
func readLedger(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(ledgerPath)
	if err != nil {
		t.Fatalf("%v (generate with go test -run ArtifactLedger -update)", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
