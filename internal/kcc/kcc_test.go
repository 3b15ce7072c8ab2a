package kcc

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"diospyros/internal/expr"
	"diospyros/internal/frontend"
	"diospyros/internal/isa"
	"diospyros/internal/kernels"
	"diospyros/internal/sim"
)

// runKernel compiles and simulates a kernel, returning outputs and cycles.
func runKernel(t *testing.T, k *frontend.Kernel, mode Mode, inputs map[string][]float64) (map[string][]float64, *sim.Result) {
	t.Helper()
	p, err := Compile(k, mode)
	if err != nil {
		t.Fatalf("%s %s: %v", k.Name, mode, err)
	}
	mem := make([]float64, p.Layout.Size())
	for _, prm := range k.Params {
		copy(mem[p.Layout.Base(prm.Name):], inputs[prm.Name])
	}
	res, err := sim.Run(p, mem, sim.Config{})
	if err != nil {
		t.Fatalf("%s %s: sim: %v\n%s", k.Name, mode, err, p.Disassemble())
	}
	out := map[string][]float64{}
	for _, prm := range k.Outs {
		b := p.Layout.Base(prm.Name)
		out[prm.Name] = res.Mem[b : b+prm.Len()]
	}
	return out, res
}

func checkAgainstInterp(t *testing.T, src string, inputs map[string][]float64) (paramCycles, fixedCycles int64) {
	t.Helper()
	k := frontend.MustParse(src)
	want, err := frontend.Interp(k, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Parametric, FixedSize} {
		got, res := runKernel(t, k, mode, inputs)
		for name, w := range want {
			for i := range w {
				if math.Abs(got[name][i]-w[i]) > 1e-9*math.Max(1, math.Abs(w[i])) {
					t.Fatalf("%s %s: %s[%d] = %g, want %g", k.Name, mode, name, i, got[name][i], w[i])
				}
			}
		}
		if mode == Parametric {
			paramCycles = res.Cycles
		} else {
			fixedCycles = res.Cycles
		}
	}
	return paramCycles, fixedCycles
}

func randSlice(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.Float64()*4 - 2
	}
	return s
}

const matmulSrc = `
kernel matmul(a[3][3], b[3][3]) -> (c[3][3]) {
    for i in 0..3 {
        for j in 0..3 {
            c[i][j] = 0.0;
            for k in 0..3 {
                c[i][j] = c[i][j] + a[i][k] * b[k][j];
            }
        }
    }
}
`

func TestMatMulBothModes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	in := map[string][]float64{"a": randSlice(r, 9), "b": randSlice(r, 9)}
	pc, fc := checkAgainstInterp(t, matmulSrc, in)
	// The paper's fixed-size effect: unrolling removes loop overhead
	// (≈1.6× on their example); require a clear improvement here.
	if fc*13 >= pc*10 {
		t.Fatalf("fixed-size (%d cycles) not ≥1.3x faster than parametric (%d)", fc, pc)
	}
}

func TestConvWithBoundaryConditions(t *testing.T) {
	src := `
kernel conv2d(i[3][5], f[3][3]) -> (o[5][7]) {
    for oRow in 0..5 {
        for oCol in 0..7 {
            for fRow in 0..3 {
                for fCol in 0..3 {
                    let fRT = 3 - 1 - fRow;
                    let fCT = 3 - 1 - fCol;
                    let iRow = oRow - fRT;
                    let iCol = oCol - fCT;
                    if iRow >= 0 && iRow < 3 && iCol >= 0 && iCol < 5 {
                        o[oRow][oCol] = o[oRow][oCol] + i[iRow][iCol] * f[fRT][fCT];
                    }
                }
            }
        }
    }
}
`
	r := rand.New(rand.NewSource(2))
	in := map[string][]float64{"i": randSlice(r, 15), "f": randSlice(r, 9)}
	k := frontend.MustParse(src)
	got, _ := runKernel(t, k, Parametric, in)
	want := kernels.Conv2DRef(3, 5, 3, 3, in["i"], in["f"])
	for i := range want {
		if math.Abs(got["o"][i]-want[i]) > 1e-9 {
			t.Fatalf("o[%d] = %g, want %g", i, got["o"][i], want[i])
		}
	}
	gotF, _ := runKernel(t, k, FixedSize, in)
	for i := range want {
		if math.Abs(gotF["o"][i]-want[i]) > 1e-9 {
			t.Fatalf("fixed: o[%d] = %g, want %g", i, gotF["o"][i], want[i])
		}
	}
}

func TestLocalArraysAndLets(t *testing.T) {
	src := `
kernel scale(a[4]) -> (o[4]) {
    var t[4];
    let s = 2.0;
    for i in 0..4 {
        t[i] = a[i] * s;
    }
    for i in 0..4 {
        o[i] = t[i] + 1.0;
    }
}
`
	r := rand.New(rand.NewSource(3))
	in := map[string][]float64{"a": randSlice(r, 4)}
	checkAgainstInterp(t, src, in)
}

func TestDataDependentWhileParametricOnly(t *testing.T) {
	// Newton iteration for sqrt: converges data-dependently.
	src := `
kernel newton(a[1]) -> (o[1]) {
    let x = a[0];
    let guess = 1.0;
    let err = 1.0;
    while err > 0.000001 {
        guess = 0.5 * (guess + x / guess);
        err = abs(guess * guess - x);
    }
    o[0] = guess;
}
`
	k := frontend.MustParse(src)
	in := map[string][]float64{"a": {7}}
	got, _ := runKernel(t, k, Parametric, in)
	if math.Abs(got["o"][0]-math.Sqrt(7)) > 1e-5 {
		t.Fatalf("newton sqrt = %g", got["o"][0])
	}
	// Fixed-size mode must refuse, at the condition.
	if _, err := Compile(k, FixedSize); err == nil || !strings.HasPrefix(err.Error(), "6:15: kcc: data-dependent condition") {
		t.Fatalf("fixed-size mode on a data-dependent while: got %v, want the rejection at 6:15", err)
	}
}

func TestElseBranches(t *testing.T) {
	src := `
kernel stripe(a[6]) -> (o[6]) {
    for i in 0..6 {
        if i % 2 == 0 {
            o[i] = a[i];
        } else {
            o[i] = 0.0 - a[i];
        }
    }
}
`
	r := rand.New(rand.NewSource(4))
	in := map[string][]float64{"a": randSlice(r, 6)}
	checkAgainstInterp(t, src, in)
}

func TestShortCircuitConditions(t *testing.T) {
	src := `
kernel border(a[4][4]) -> (o[4][4]) {
    for i in 0..4 {
        for j in 0..4 {
            if i == 0 || j == 0 || i == 3 || j == 3 {
                o[i][j] = 0.0;
            } else {
                o[i][j] = a[i][j];
            }
            if i > 0 && j > 0 && i < 3 && j < 3 {
                o[i][j] = o[i][j] * 2.0;
            }
        }
    }
}
`
	r := rand.New(rand.NewSource(5))
	in := map[string][]float64{"a": randSlice(r, 16)}
	checkAgainstInterp(t, src, in)
}

func TestFixedSizePromotionBounds(t *testing.T) {
	k := frontend.MustParse(matmulSrc)
	p, err := Compile(k, FixedSize)
	if err != nil {
		t.Fatal(err)
	}
	// 3×3·3×3 matmul touches 18 input elements 27 times each side (54
	// reads total). Bounded register promotion must eliminate some reuse
	// but cannot keep everything live: strictly between the two extremes.
	loads := int(p.OpHistogram()[isa.SLoad])
	if loads < 18 || loads >= 54 {
		t.Fatalf("fixed-size matmul has %d scalar loads, want within (18, 54)", loads)
	}
	// The c[i][j] accumulator must be promoted across the k loop: exactly
	// one store per output element.
	if stores := int(p.OpHistogram()[isa.SStore]); stores != 9 {
		t.Fatalf("fixed-size matmul has %d stores, want 9 (promoted accumulators)", stores)
	}
	// No runtime control flow remains.
	for _, in := range p.Instrs {
		if in.Op.IsBranch() {
			t.Fatalf("fixed-size code contains branch %s", in)
		}
	}
}

func TestUninterpretedFunctionCall(t *testing.T) {
	src := `
kernel f(a[2]) -> (o[2]) {
    for i in 0..2 {
        o[i] = half(a[i]) + 1.0;
    }
}
`
	k := frontend.MustParse(src)
	p, err := Compile(k, Parametric)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]float64, p.Layout.Size())
	copy(mem[p.Layout.Base("a"):], []float64{4, 10})
	cfg := sim.Config{Funcs: map[string]func([]float64) float64{
		"half": func(args []float64) float64 { return args[0] / 2 },
	}}
	res, err := sim.Run(p, mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := p.Layout.Base("o")
	if res.Mem[b] != 3 || res.Mem[b+1] != 6 {
		t.Fatalf("o = %v", res.Mem[b:b+2])
	}
}

// TestTestdataKernelsBothModes runs every testdata kernel through both
// modes on seeded inputs against Interp.
func TestTestdataKernelsBothModes(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/*.dios")
	if err != nil || len(paths) == 0 {
		t.Fatalf("testdata sources: %v (found %d)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(6))
		in := map[string][]float64{}
		for _, p := range frontend.MustParse(string(src)).Params {
			in[p.Name] = randSlice(r, p.Len())
		}
		checkAgainstInterp(t, string(src), in)
	}
}

// TestFixedSizeWorkBudgetTripsFast checks that FixedSize mode stops each
// hostile loop within a second with a budget error: a long empty loop and
// a short loop over 300 integer lets exceed the frontend's work budget, at
// their position, and a float accumulation loop exceeds the instruction
// budget first. Every emitted instruction counts against that budget, not
// only arithmetic: a var array's zero fill, and the promotion cache's
// loads and evicting stores in a copy loop, stop the walk with it (no
// position: the walk stops at its next context poll).
func TestFixedSizeWorkBudgetTripsFast(t *testing.T) {
	var lets strings.Builder
	lets.WriteString("kernel k(a[1]) -> (o[1]) {\n    for i in 0..499000 {\n")
	for j := range 300 {
		fmt.Fprintf(&lets, "        let v%d = i * %d + %d;\n", j, j, j)
	}
	lets.WriteString("    }\n    o[0] = a[0];\n}\n")
	for _, h := range []struct{ src, pos, msg string }{
		{"kernel k(a[1]) -> (o[1]) {\n    for i in 0..2000000000 {}\n}", "2:5:", "work budget"},
		{lets.String(), "150:24:", "work budget"},
		{"kernel k(a[1]) -> (o[1]) {\n    for i in 0..2000000000 { o[0] = o[0] + a[0]; }\n}", "2:42:", "budget of 100000 instructions"},
		{"kernel k(a[1]) -> (o[1]) { for i in 0..30 { var t[10000]; } o[0] = a[0]; }", "", "budget of 100000 instructions"},
		{"kernel k(a[64]) -> (o[64]) { for i in 0..400000 { o[i % 64] = a[(i * 7) % 64]; } }", "", "budget of 100000 instructions"},
	} {
		k := frontend.MustParse(h.src)
		start := time.Now()
		_, err := Compile(k, FixedSize)
		if d := time.Since(start); d > time.Second {
			t.Errorf("FixedSize took %v to stop\n%s", d, h.src)
		}
		if err == nil || !strings.HasPrefix(err.Error(), h.pos) || !strings.Contains(err.Error(), h.msg) {
			t.Errorf("FixedSize: got %v, want %q at %s", err, h.msg, h.pos)
		}
	}
}

// TestHugeShapeRejected checks that both modes reject a kernel whose
// parameter shape overflows an int, at the parameter, before sizing its
// memory.
func TestHugeShapeRejected(t *testing.T) {
	k := frontend.MustParse("kernel k(a[3037000500][3037000500]) -> (o[1]) { o[0] = 1.0; }")
	for _, mode := range []Mode{Parametric, FixedSize} {
		_, err := Compile(k, mode)
		if err == nil || !strings.HasPrefix(err.Error(), "1:10:") || !strings.Contains(err.Error(), "work budget") {
			t.Errorf("%s: got %v, want a work-budget error at 1:10:", mode, err)
		}
	}
}

// TestParametricVarArrayBudget checks that Parametric mode rejects, at
// its declaration, a var array whose zero fill would pass the instruction
// budget, even on a branch that never runs.
func TestParametricVarArrayBudget(t *testing.T) {
	k := frontend.MustParse("kernel k(a[1]) -> (o[1]) {\n    if 1 < 0 {\n        var t[100000][100000];\n    }\n    o[0] = a[0];\n}")
	_, err := Compile(k, Parametric)
	if err == nil || !strings.HasPrefix(err.Error(), "3:9:") || !strings.Contains(err.Error(), "budget of 100000 instructions") {
		t.Fatalf("got %v, want the instruction budget at 3:9", err)
	}
}

// TestRoutineRunChecksInputs checks that Routine.Run rejects a missing
// input and an input of the wrong length before simulating.
func TestRoutineRunChecksInputs(t *testing.T) {
	rt, err := Build("kernel k(a[2], b[3]) -> (o[1]) { o[0] = a[0] + b[2]; }", Parametric)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := rt.Run(map[string][]float64{"a": {1, 2}, "b": {3, 4, 5}})
	if err != nil || len(out["o"]) != 1 || out["o"][0] != 6 {
		t.Fatalf("Run = %v, %v; want o = [6]", out, err)
	}
	for _, c := range []struct {
		inputs map[string][]float64
		want   string
	}{
		{map[string][]float64{"a": {1, 2}}, `missing input "b"`},
		{map[string][]float64{"a": {1, 2}, "b": {3, 4}}, `input "b" has 2 elements, want 3`},
		{map[string][]float64{"a": {1, 2, 0}, "b": {3, 4, 5}}, `input "a" has 3 elements, want 2`},
	} {
		if _, _, err := rt.Run(c.inputs); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run(%v) = %v, want an error containing %q", c.inputs, err, c.want)
		}
	}
}

// siblingVarSrc declares a var array t in each of two consecutive loops:
// two declarations, two slots, two regions.
const siblingVarSrc = `kernel k(a[2]) -> (o[2]) {
    for i in 0..2 {
        var t[1];
        t[0] = a[i];
        o[i] = t[0];
    }
    for i in 0..2 {
        var t[1];
        t[0] = t[0] + a[i];
        o[i] = o[i] + t[0];
    }
}`

// TestSiblingVarArraysBothModes checks that var arrays of one name in
// sibling scopes compile in both modes, to Interp's outputs.
func TestSiblingVarArraysBothModes(t *testing.T) {
	checkAgainstInterp(t, siblingVarSrc, map[string][]float64{"a": {3, 5}})
}

// scopingKernels are kernels whose names shadow, or are shadowed by, a
// declaration of the same name, each with its input a and the output o
// its scoping rules give, written out by hand.
var scopingKernels = []struct {
	name, src string
	a, want   []float64
}{
	{"float let shadows int let, then is assigned", `kernel k(a[1]) -> (o[2]) {
    let x = 1;
    for i in 0..1 {
        let x = 2.0;
        x = 3.5;
        o[0] = x;
    }
    o[x] = a[0];
}`, []float64{10}, []float64{3.5, 10}},
	{"int let shadows float let", `kernel k(a[1]) -> (o[4]) {
    let x = 0.5;
    for i in 0..2 {
        let x = 2;
        x = x + i;
        o[x] = a[0];
    }
    x = x + 1.0;
    o[0] = x;
}`, []float64{7}, []float64{1.5, 0, 7, 7}},
	{"outer variable read before the body's own let", `kernel k(a[1]) -> (o[2]) {
    let x = a[0];
    for i in 0..2 {
        o[i] = x;
        let x = 5.0;
        o[i] = o[i] + x;
        x = 0.0;
    }
}`, []float64{2}, []float64{7, 7}},
	{"var array redeclared and zero-filled each iteration", `kernel k(a[3]) -> (o[3]) {
    for i in 0..3 {
        var t[3];
        t[i] = t[i] + a[i];
        for j in 0..3 {
            o[i] = o[i] + t[j];
        }
    }
}`, []float64{1, 2, 4}, []float64{1, 2, 4}},
	{"scalar and array sharing a name in nested scopes", `kernel k(a[2]) -> (o[3]) {
    let t = 2;
    var s[1];
    s[0] = a[0];
    for i in 0..2 {
        var t[2];
        let s = 3.0;
        t[i] = a[i] * s;
        o[i] = t[i] + s[0];
    }
    o[t] = s[0];
}`, []float64{1, 2}, []float64{4, 7, 1}},
	{"loop bound read once though the body assigns it", `kernel k(a[1]) -> (o[4]) {
    let n = 4;
    for i in 0..n {
        n = n - 1;
        o[i] = a[0];
    }
}`, []float64{6}, []float64{6, 6, 6, 6}},
}

// TestScopingAcrossExecutors runs each scoping kernel through Interp, the
// lifted specification, and both kcc modes: each must give the outputs
// Check's resolution of the kernel's names means.
func TestScopingAcrossExecutors(t *testing.T) {
	for _, c := range scopingKernels {
		k := frontend.MustParse(c.src)
		in := map[string][]float64{"a": c.a}
		got := map[string][]float64{}
		if out, err := frontend.Interp(k, in, nil); err != nil {
			t.Errorf("%s: Interp: %v", c.name, err)
		} else {
			got["Interp"] = out["o"]
		}
		if l, err := frontend.Lift(k); err != nil {
			t.Errorf("%s: Lift: %v", c.name, err)
		} else {
			env := expr.NewEnv()
			env.Arrays["a"] = c.a
			v, err := l.Spec.Eval(env)
			if err != nil {
				t.Fatalf("%s: the lifted spec does not evaluate: %v", c.name, err)
			}
			got["Lift"] = v.Elems
		}
		for _, mode := range []Mode{Parametric, FixedSize} {
			p, err := Compile(k, mode)
			if err != nil {
				t.Errorf("%s: %s: %v", c.name, mode, err)
				continue
			}
			out, _, err := (&Routine{Kernel: k, Program: p}).Run(in)
			if err != nil {
				t.Errorf("%s: %s: %v", c.name, mode, err)
				continue
			}
			got[mode.String()] = out["o"]
		}
		for by, o := range got {
			if !slices.Equal(o, c.want) {
				t.Errorf("%s: %s gives o = %v, want %v", c.name, by, o, c.want)
			}
		}
	}
}
