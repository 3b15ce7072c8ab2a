package bench

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diospyros/internal/frontend"
	"diospyros/internal/kcc"
)

var update = flag.Bool("update", false, "rewrite testdata/baselines.golden")

const baselinesPath = "testdata/baselines.golden"

// baselinesHeader is the golden file's first line, naming its columns.
const baselinesHeader = "# kernel\tsource\tmode\tasm\tinstrs\tcycles"

// TestBaselineLedger compiles every kcc input of the evaluation, the 21
// suite kernels' naive and Eigen sources and the testdata sources, in
// both kcc modes, and diffs one line per (kernel, source, mode) against
// testdata/baselines.golden: a hash of the disassembly, the instruction
// count and the simulated cycles on seeded inputs. A rejected compile
// records its message instead. Figure 5's Naive, Naive (fixed size) and
// Eigen columns are these cycles. Regenerate with go test -run
// BaselineLedger -update and say which line moved and why.
func TestBaselineLedger(t *testing.T) {
	var got []string
	for _, k := range Suite() {
		for _, src := range []struct{ name, text string }{{"naive", k.NaiveSrc}, {"eigen", k.EigenSrc}} {
			inputs := k.Inputs(rand.New(rand.NewSource(1)))
			got = append(got, baselineLines(t, k.ID, src.name, src.text, inputs)...)
		}
	}
	paths, err := filepath.Glob("../../testdata/*.dios")
	if err != nil || len(paths) == 0 {
		t.Fatalf("testdata sources: %v (found %d)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		k := frontend.MustParse(string(src))
		r := rand.New(rand.NewSource(1))
		inputs := map[string][]float64{}
		for _, p := range k.Params {
			inputs[p.Name] = randSlice(r, p.Len())
		}
		got = append(got, baselineLines(t, filepath.Base(path), "dios", string(src), inputs)...)
	}

	if *update {
		body := baselinesHeader + "\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(baselinesPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(baselinesPath)
	if err != nil {
		t.Fatalf("%v (generate with go test -run BaselineLedger -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")[1:]
	for i := range max(len(want), len(got)) {
		w, g := lineAt(want, i), lineAt(got, i)
		if w != g {
			t.Errorf("%s line %d moved (regenerate with -update after a deliberate move):\n  was %q\n  now %q",
				baselinesPath, i+2, w, g)
		}
	}
}

// baselineLines compiles src in both kcc modes and renders one line per
// mode. A rejection records the message without its source position, so
// the line pins what kcc refused, not where the diagnostic points.
func baselineLines(t *testing.T, kernel, source, src string, inputs map[string][]float64) []string {
	t.Helper()
	k, err := frontend.Parse(src)
	if err != nil {
		t.Fatalf("%s %s: %v", kernel, source, err)
	}
	var out []string
	for _, mode := range []kcc.Mode{kcc.Parametric, kcc.FixedSize} {
		cols := []string{kernel, source, mode.String()}
		p, err := kcc.Compile(k, mode)
		if err != nil {
			var fe *frontend.Error
			if errors.As(err, &fe) {
				err = errors.New(fe.Msg)
			}
			out = append(out, strings.Join(append(cols, "error: "+err.Error()), "\t"))
			continue
		}
		sum := sha256.Sum256([]byte(p.Disassemble()))
		var cycles string
		if _, res, err := (&kcc.Routine{Kernel: k, Program: p}).Run(inputs); err == nil {
			cycles = fmt.Sprint(res.Cycles)
		} else {
			cycles = "error: " + err.Error()
		}
		out = append(out, strings.Join(append(cols,
			fmt.Sprintf("%x", sum[:8]), fmt.Sprint(len(p.Instrs)), cycles), "\t"))
	}
	return out
}

// lineAt is lines[i], or "" past its end.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}
