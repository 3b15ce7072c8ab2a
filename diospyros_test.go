package diospyros

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"diospyros/internal/expr"
	"diospyros/internal/kernel"
	"diospyros/internal/kernels"
)

func testOpts() Options {
	return Options{Timeout: 20 * time.Second, NodeLimit: 300_000, MaxIterations: 30}
}

func randIn(r *rand.Rand, l *kernel.Lifted) map[string][]float64 {
	in := map[string][]float64{}
	for _, d := range l.Inputs {
		arr := make([]float64, d.Len())
		for i := range arr {
			arr[i] = r.Float64()*4 - 2
		}
		in[d.Name] = arr
	}
	return in
}

// checkCompiled compiles a lifted kernel and verifies the simulated outputs
// against direct evaluation of the specification.
func checkCompiled(t *testing.T, l *kernel.Lifted, opts Options) *Result {
	t.Helper()
	res, err := Compile(l, opts)
	if err != nil {
		t.Fatalf("%s: compile: %v", l.Name, err)
	}
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		in := randIn(r, l)
		got, _, err := res.Run(in, nil)
		if err != nil {
			t.Fatalf("%s: run: %v", l.Name, err)
		}
		env := expr.NewEnv()
		for k, v := range in {
			env.Arrays[k] = v
		}
		want, err := l.Spec.Eval(env)
		if err != nil {
			t.Fatalf("%s: spec eval: %v", l.Name, err)
		}
		flat := want.AsSlice()
		idx := 0
		for _, d := range l.Outputs {
			for i := 0; i < d.Len(); i++ {
				w := flat[idx]
				g := got[d.Name][i]
				if math.Abs(w-g) > 1e-6*math.Max(1, math.Abs(w)) {
					t.Fatalf("%s: output %s[%d] = %g, want %g", l.Name, d.Name, i, g, w)
				}
				idx++
			}
		}
	}
	return res
}

func TestCompileVectorAddEndToEnd(t *testing.T) {
	src := `
kernel vadd(a[8], b[8]) -> (c[8]) {
    for i in 0..8 {
        c[i] = a[i] + b[i];
    }
}
`
	res, err := CompileSource(src, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturation.Saturated() {
		t.Errorf("vadd did not saturate: %+v", res.Saturation)
	}
	// Fully vectorized: 2 chunks, each one VAdd; no scalar arithmetic.
	if !strings.Contains(res.C, "PDX_ADD_MXF32") {
		t.Errorf("C output missing vector add:\n%s", res.C)
	}
	if strings.Contains(res.C, " + ") && strings.Contains(res.C, "float s_") {
		t.Errorf("C output contains scalar adds:\n%s", res.C)
	}
	checkCompiled(t, res.Kernel, testOpts())
}

func TestCompileMatMulSizes(t *testing.T) {
	for _, sz := range [][3]int{{2, 2, 2}, {2, 3, 3}, {3, 3, 3}, {4, 4, 4}} {
		l := kernels.MatMul(sz[0], sz[1], sz[2])
		res := checkCompiled(t, l, testOpts())
		// Vectorization should remove all scalar multiplies.
		if strings.Contains(res.C, "float s_") && strings.Contains(res.C, " * ") {
			t.Errorf("%s: scalar multiplies remain in generated code", l.Name)
		}
	}
}

func TestCompileConv2DSizes(t *testing.T) {
	for _, sz := range [][4]int{{3, 3, 2, 2}, {3, 5, 3, 3}} {
		l := kernels.Conv2D(sz[0], sz[1], sz[2], sz[3])
		checkCompiled(t, l, testOpts())
	}
}

func TestCompileQProd(t *testing.T) {
	l := kernels.QProd()
	res := checkCompiled(t, l, testOpts())
	if res.Program == nil {
		t.Fatal("no program")
	}
}

func TestCompileQRDecomp2x2(t *testing.T) {
	l := kernels.QRDecomp(2)
	checkCompiled(t, l, testOpts())
}

func TestCompileQRDecomp3x3(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	l := kernels.QRDecomp(3)
	opts := testOpts()
	opts.Timeout = 30 * time.Second
	checkCompiled(t, l, opts)
}

func TestCompileWithValidation(t *testing.T) {
	l := kernels.MatMul(2, 3, 3)
	opts := testOpts()
	opts.Validate = true
	res, err := Compile(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Validated {
		t.Fatal("Validated flag not set")
	}
}

func TestCompileScalarAblation(t *testing.T) {
	// §5.6: vector rules disabled still produces correct (scalar) code.
	l := kernels.MatMul(2, 3, 3)
	opts := testOpts()
	opts.DisableVectorRules = true
	res := checkCompiled(t, l, opts)
	if strings.Contains(res.C, "PDX_") && strings.Contains(res.C, "MAC") {
		t.Errorf("scalar ablation produced vector code")
	}
	// The vectorized version should simulate faster.
	vec, err := Compile(l, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	in := randIn(r, l)
	_, sres, err := res.Run(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, vres, err := vec.Run(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vres.Cycles >= sres.Cycles {
		t.Errorf("vectorized (%d cycles) not faster than scalar (%d cycles)", vres.Cycles, sres.Cycles)
	}
}

func TestCompileUninterpretedFunction(t *testing.T) {
	// The §6 extension path: a kernel using a custom target function.
	src := `
kernel recip4(a[4]) -> (o[4]) {
    for i in 0..4 {
        o[i] = recip(a[i]);
    }
}
`
	res, err := CompileSource(src, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.C, "recip") {
		t.Fatalf("C output missing recip call:\n%s", res.C)
	}
	funcs := map[string]func([]float64) float64{
		"recip": func(args []float64) float64 { return 1 / args[0] },
	}
	in := map[string][]float64{"a": {1, 2, 4, 8}}
	got, _, err := res.Run(in, funcs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.5, 0.25, 0.125}
	for i := range want {
		if got["o"][i] != want[i] {
			t.Fatalf("o[%d] = %g, want %g", i, got["o"][i], want[i])
		}
	}
	// The vectorizer should have turned it into a single vector call.
	if !strings.Contains(res.C, "recip_v(") {
		t.Errorf("recip not vectorized:\n%s", res.C)
	}
}

func TestCompileReportsStats(t *testing.T) {
	l := kernels.MatMul(2, 2, 2)
	res, err := Compile(l, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Duration <= 0 || res.Trace.AllocBytes == 0 || res.Saturation.Nodes == 0 {
		t.Fatalf("missing stats: %+v", res)
	}
	if res.Cost <= 0 {
		t.Fatalf("cost = %g", res.Cost)
	}
}

func TestCompileTimeoutStillEmitsCode(t *testing.T) {
	// §3.4/§5.5: a timed-out search still extracts a valid program.
	l := kernels.MatMul(4, 4, 4)
	opts := testOpts()
	opts.MaxIterations = 1 // stop long before vectorization completes
	res := checkCompiled(t, l, opts)
	if res.Saturation.Saturated() {
		t.Skip("saturated in one iteration; nothing to check")
	}
}

// TestPipelinePropertyRandomKernels pushes randomly generated kernels
// (ragged sums of products with shared subterms, the paper's problem
// shape), written as kernel-language source, through the complete
// pipeline — lift, saturate, extract, lower, codegen, simulate — and
// compares against direct evaluation of the spec.
func TestPipelinePropertyRandomKernels(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 15; trial++ {
		var src strings.Builder
		na, nb := 4+r.Intn(8), 4+r.Intn(8)
		nOut := 1 + r.Intn(9)
		fmt.Fprintf(&src, "kernel fuzz%d(a[%d], b[%d]) -> (o[%d]) {\n", trial, na, nb, nOut)
		for i := 0; i < nOut; i++ {
			terms := 1 + r.Intn(5)
			for k := 0; k < terms; k++ {
				p := fmt.Sprintf("a[%d] * b[%d]", r.Intn(na), r.Intn(nb))
				switch r.Intn(3) {
				case 0:
					fmt.Fprintf(&src, "    o[%d] = o[%d] + %s;\n", i, i, p)
				case 1:
					fmt.Fprintf(&src, "    o[%d] = o[%d] - %s;\n", i, i, p)
				default:
					fmt.Fprintf(&src, "    o[%d] = o[%d] + %s * %d.0;\n", i, i, p, 1+r.Intn(3))
				}
			}
		}
		src.WriteString("}\n")
		l, err := Lift(src.String())
		if err != nil {
			t.Fatalf("%v\n%s", err, src.String())
		}
		opts := testOpts()
		opts.Validate = true
		checkCompiled(t, l, opts)
	}
}
