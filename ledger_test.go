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
// any artifact moves a line; regenerate with go test -run ArtifactLedger
// -update and say which line moved and why.
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
		body := "# kernel\ttargets\ttarget\tc\tasm\tcost\tcycles\titers\tnodes\tclasses\tpeak_bytes\tstop\tverdict\trules\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(ledgerPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readLedger(t)
	for i := 0; i < max(len(got), len(want)); i++ {
		switch {
		case i >= len(want):
			t.Errorf("line %d only in the compile:\n  %s", i+1, got[i])
		case i >= len(got):
			t.Errorf("line %d only in %s:\n  %s", i+1, ledgerPath, want[i])
		case got[i] != want[i]:
			t.Errorf("line %d moved:\n  got  %s\n  want %s", i+1, got[i], want[i])
		}
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
