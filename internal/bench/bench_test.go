package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	diospyros "diospyros"
	"diospyros/internal/expr"
	"diospyros/internal/frontend"
)

func quickOpts() diospyros.Options {
	return diospyros.Options{Timeout: 30 * time.Second, NodeLimit: 500_000}
}

func TestSuiteHas21Kernels(t *testing.T) {
	s := Suite()
	if len(s) != 21 {
		t.Fatalf("suite has %d kernels, want 21 (Table 1)", len(s))
	}
	fams := map[string]int{}
	for _, k := range s {
		fams[k.Family]++
		if k.RefLOC <= 0 {
			t.Errorf("%s: missing reference LOC", k.ID)
		}
	}
	want := map[string]int{"2DConv": 11, "MatMul": 7, "QProd": 1, "QRDecomp": 2}
	for f, n := range want {
		if fams[f] != n {
			t.Errorf("family %s has %d kernels, want %d", f, fams[f], n)
		}
	}
}

// TestSuiteLiftsItsNaiveSource checks that each kernel's Diospyros input
// is the lift of the naive source its baselines compile, and that the
// specification reads every input element through one shared Get node.
func TestSuiteLiftsItsNaiveSource(t *testing.T) {
	type elem struct {
		array string
		index int
	}
	for _, k := range Suite() {
		l := k.Lift()
		naive, err := frontend.Lift(frontend.MustParse(k.NaiveSrc))
		if err != nil {
			t.Fatalf("%s: %v", k.ID, err)
		}
		if expr.Dump(l.Spec) != expr.Dump(naive.Spec) {
			t.Errorf("%s: the specification is not the lift of the naive source", k.ID)
		}
		gets := map[elem]int{} // distinct Get nodes per element
		var m expr.Memo[struct{}]
		m.Fold(l.Spec, func(e *expr.Expr, _ []struct{}) (struct{}, error) {
			if e.Op == expr.OpGet {
				gets[elem{e.Sym, e.Idx}]++
			}
			return struct{}{}, nil
		})
		for el, n := range gets {
			if n != 1 {
				t.Errorf("%s: %d Get nodes read %s[%d], want one", k.ID, n, el.array, el.index)
				break
			}
		}
	}
}

// BenchmarkLift lifts the 21 suite kernels from their naive sources,
// parsed and checked once outside the timer: the frontend's share of a
// suite compile.
func BenchmarkLift(b *testing.B) {
	var ks []*frontend.Kernel
	for _, k := range Suite() {
		ks = append(ks, frontend.MustParse(k.NaiveSrc))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, k := range ks {
			if _, err := frontend.Lift(k); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestFigure5SmallKernels runs the full five-system comparison on the small
// kernels and asserts the paper's qualitative claims.
func TestFigure5SmallKernels(t *testing.T) {
	rows, err := Figure5(Options{Opts: quickOpts(), Only: "3x3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Cycles.Naive <= r.Cycles.NaiveFixed {
			t.Errorf("%s: fixed-size (%d) not faster than naive (%d)",
				r.Kernel.ID, r.Cycles.NaiveFixed, r.Cycles.Naive)
		}
		// Diospyros beats the naive loop nest on every kernel.
		if r.Cycles.Diospyros >= r.Cycles.Naive {
			t.Errorf("%s: diospyros (%d) not faster than naive (%d)",
				r.Kernel.ID, r.Cycles.Diospyros, r.Cycles.Naive)
		}
		// Eigen (portable scalar) is never the winner, as in Figure 5.
		if r.Cycles.Eigen > 0 && r.Cycles.Eigen < r.Cycles.Diospyros {
			t.Errorf("%s: eigen (%d) beat diospyros (%d)",
				r.Kernel.ID, r.Cycles.Eigen, r.Cycles.Diospyros)
		}
	}
}

func TestFigure5MatMulFamilyShapes(t *testing.T) {
	rows, err := Figure5(Options{Opts: quickOpts(), Only: "MatMul"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d MatMul rows", len(rows))
	}
	// The paper reports 2.7x–19.3x over fixed-size naive for MatMul;
	// require every size to land above 2x.
	for _, r := range rows {
		if sp := r.Speedup(r.Cycles.Diospyros); sp < 2 {
			t.Errorf("%s: speedup %.2fx below 2x", r.Kernel.ID, sp)
		}
	}
	// Nature (size-generic vectorized) overtakes fixed-size naive at the
	// largest size but loses at the smallest (control overhead, §5.4).
	first, last := rows[0], rows[len(rows)-1]
	if first.Cycles.Nature <= first.Cycles.NaiveFixed {
		t.Errorf("2x2: Nature (%d) should lose to fixed-size (%d) on tiny kernels",
			first.Cycles.Nature, first.Cycles.NaiveFixed)
	}
	if last.Cycles.Nature >= last.Cycles.NaiveFixed {
		t.Errorf("16x16: Nature (%d) should beat fixed-size (%d) on large kernels",
			last.Cycles.Nature, last.Cycles.NaiveFixed)
	}
}

func TestGeomeanHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run")
	}
	rows, err := Figure5(Options{Opts: quickOpts()})
	if err != nil {
		t.Fatal(err)
	}
	g := GeomeanVsBestBaseline(rows)
	// Paper: 3.1x. Accept the same ballpark.
	if g < 2.0 || g > 6.0 {
		t.Fatalf("geomean speedup %.2fx outside plausible band [2, 6]", g)
	}
	t.Logf("geomean speedup over best baseline: %.2fx (paper: 3.1x)", g)
}

func TestTable1SmallKernels(t *testing.T) {
	rows, err := Table1(Options{Opts: quickOpts(), Only: "2x2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Trace.Duration <= 0 || r.Nodes == 0 {
			t.Errorf("%s: missing stats %+v", r.Kernel.ID, r)
		}
	}
	out := FormatTable1(rows)
	if len(out) == 0 {
		t.Fatal("empty table")
	}
	// A failed compile reads with the kernel ID and one library prefix.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Table1(Options{Opts: quickOpts(), Only: "QProd", Context: ctx})
	if err == nil || !strings.HasPrefix(err.Error(), "QProd 4,3,4,3: diospyros: ") ||
		strings.Count(err.Error(), "diospyros:") != 1 {
		t.Errorf("canceled Table1 error = %v, want one \"QProd 4,3,4,3: diospyros: \" prefix", err)
	}
}

func TestFigure6IterationSweepImproves(t *testing.T) {
	rows, err := Figure6Iterations([]int{1, 3, 30})
	if err != nil {
		t.Fatal(err)
	}
	// rows: 1 iter, 3 iters, 30 iters, Nature.
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	budget1, budget3, budget30 := rows[0], rows[1], rows[2]
	if !(budget1.Cycles >= budget3.Cycles && budget3.Cycles >= budget30.Cycles) {
		t.Fatalf("quality does not improve with budget: %d, %d, %d",
			budget1.Cycles, budget3.Cycles, budget30.Cycles)
	}
	if budget1.Cycles == budget30.Cycles {
		t.Fatalf("budget has no effect (1 iter: %d, 30 iters: %d)", budget1.Cycles, budget30.Cycles)
	}
	if !budget30.Saturated {
		t.Error("30 iterations should saturate 10x10 MatMul")
	}
	// The saturated kernel beats the Nature library (Figure 6's endpoint).
	nature := rows[3]
	if budget30.Cycles >= nature.Cycles {
		t.Errorf("saturated Diospyros (%d) should beat Nature (%d)", budget30.Cycles, nature.Cycles)
	}
	if s := FormatFigure6(rows); len(s) == 0 {
		t.Error("empty figure")
	}
}

func TestExpertComparison(t *testing.T) {
	res, err := Expert(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: within 8% of expert. Allow ±25% in either direction.
	if res.GapPercent > 25 || res.GapPercent < -25 {
		t.Fatalf("gap %.1f%% outside ±25%% (dios %d vs expert %d)",
			res.GapPercent, res.DiospyrosCycles, res.ExpertCycles)
	}
	if res.DiospyrosCycles <= 0 || res.ExpertCycles <= 0 {
		t.Fatal("missing cycles")
	}
	if s := FormatExpert(res); len(s) == 0 {
		t.Fatal("empty report")
	}
}

func TestAblationQProd(t *testing.T) {
	opt := Options{Opts: quickOpts(), Only: "QProd"}
	f5, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := Ablation(f5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.ScalarOnly <= 0 || r.Vectorized <= 0 {
		t.Fatalf("missing cycles: %+v", r)
	}
	// The vectorized and best-baseline columns are Figure 5's, not a
	// second compile's.
	if r.Vectorized != f5[0].Cycles.Diospyros || r.BestBaseline != f5[0].BestBaseline() {
		t.Errorf("vectorized %d, best baseline %d, want Figure 5's %d, %d",
			r.Vectorized, r.BestBaseline, f5[0].Cycles.Diospyros, f5[0].BestBaseline())
	}
	// The scalar ablation must still beat the naive baseline (CSE effect).
	if r.ScalarOnly >= r.BestBaseline*3 {
		t.Errorf("scalar ablation (%d) far worse than baseline (%d)", r.ScalarOnly, r.BestBaseline)
	}
}

func TestTheiaCaseStudy(t *testing.T) {
	res, err := Theia()
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 1.0 {
		t.Fatalf("no end-to-end speedup: %.2fx", res.Speedup)
	}
	if res.QRShare <= 0.2 {
		t.Errorf("QR share %.0f%% suspiciously small", 100*res.QRShare)
	}
	if s := FormatTheia(res); len(s) == 0 {
		t.Fatal("empty report")
	}
}

func TestMotivatingNumbers(t *testing.T) {
	rows, err := Figure5(Options{Opts: quickOpts(), Only: "2DConv 3x5 3x3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	// §2's qualitative chain: naive < fixed < library < diospyros.
	if !(r.Cycles.Diospyros < r.Cycles.Nature &&
		r.Cycles.Nature < r.Cycles.Naive &&
		r.Cycles.NaiveFixed < r.Cycles.Naive) {
		t.Fatalf("motivating-example ordering broken: %+v", r.Cycles)
	}
	if s := FormatMotivating(rows); len(s) == 0 {
		t.Fatal("empty report")
	}
}

func TestCostModelAblation(t *testing.T) {
	opt := Options{Opts: quickOpts(), Only: "MatMul 2x3"}
	f5, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := CostModelAblation(f5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.Aware != f5[0].Cycles.Diospyros {
		t.Errorf("aware %d, want Figure 5's %d", r.Aware, f5[0].Cycles.Diospyros)
	}
	// The movement-aware model must never produce a slower kernel than the
	// uniform ablation on this kernel (it distinguishes single-array
	// shuffles from cross-array gathers).
	if r.Aware > r.Uniform {
		t.Fatalf("aware model (%d) worse than uniform (%d)", r.Aware, r.Uniform)
	}
	if s := FormatCostAblation(rows); len(s) == 0 {
		t.Fatal("empty report")
	}
}

// TestProfileChecksumSuite compiles and simulates every suite kernel and
// asserts the cycle profiler's attribution invariant: the breakdown
// (operand stalls + memory stalls + branch bubbles + per-slot issue
// cycles + 1) and the per-opcode cycles each sum to the kernel's total
// simulated Cycles.
func TestProfileChecksumSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite compile in -short mode")
	}
	rows, err := Table1(Options{Opts: quickOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Suite()) {
		t.Fatalf("profiled %d kernels, want %d", len(rows), len(Suite()))
	}
	for _, r := range rows {
		if r.Profile == nil {
			t.Errorf("%s: no cycle profile", r.Kernel.ID)
			continue
		}
		if err := r.Profile.CheckSum(); err != nil {
			t.Errorf("%s: %v", r.Kernel.ID, err)
		}
		if r.Profile.Cycles != r.Cycles.Diospyros {
			t.Errorf("%s: profile cycles %d != row cycles %d", r.Kernel.ID, r.Profile.Cycles, r.Cycles.Diospyros)
		}
	}
}

func TestMatchOnly(t *testing.T) {
	cases := []struct {
		only, id string
		want     bool
	}{
		{"", "MatMul 2x2 2x2", true},
		{"MatMul 2x2", "MatMul 2x2 2x2", true},
		{"MatMul 2x2,2DConv 3x3 2x2", "2DConv 3x3 2x2", true},
		{"MatMul 2x2, 2DConv 3x3 2x2", "2DConv 3x3 2x2", true},
		{"QRDecomp", "MatMul 2x2 2x2", false},
		{" , ", "MatMul 2x2 2x2", false},
	}
	for _, c := range cases {
		if got := matchOnly(c.only, c.id); got != c.want {
			t.Errorf("matchOnly(%q, %q) = %v, want %v", c.only, c.id, got, c.want)
		}
	}
}

// TestCheck pins the one reference check every simulated program passes
// through: 1e-4 relative tolerance over each output's declared prefix.
func TestCheck(t *testing.T) {
	want := map[string][]float64{"o": {1, 200}}
	for _, c := range []struct {
		name string
		got  map[string][]float64
		ok   bool
	}{
		{"exact", map[string][]float64{"o": {1, 200}}, true},
		{"within tolerance", map[string][]float64{"o": {1 + 5e-5, 200.01}}, true},
		{"padded longer output", map[string][]float64{"o": {1, 200, 0, 0}}, true},
		{"outside tolerance", map[string][]float64{"o": {1, 200.05}}, false},
		{"missing output", map[string][]float64{"p": {1, 200}}, false},
		{"short output", map[string][]float64{"o": {1}}, false},
	} {
		if err := check("sys", want, c.got); (err == nil) != c.ok {
			t.Errorf("%s: check = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestTable1MatchesFigure5 checks that the pass with and without
// baselines reports the same Diospyros compile.
func TestTable1MatchesFigure5(t *testing.T) {
	opt := Options{Opts: quickOpts(), Only: "MatMul 2x3,QProd"}
	t1, err := Table1(opt)
	if err != nil {
		t.Fatal(err)
	}
	f5, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != 2 || len(f5) != 2 {
		t.Fatalf("got %d Table 1 and %d Figure 5 rows, want 2 each", len(t1), len(f5))
	}
	for i, a := range t1 {
		b := f5[i]
		if a.Kernel.ID != b.Kernel.ID || a.Nodes != b.Nodes || a.Classes != b.Classes ||
			len(a.Trace.Iterations) != len(b.Trace.Iterations) ||
			a.Cycles.Diospyros != b.Cycles.Diospyros || a.PeakEGraphBytes() != b.PeakEGraphBytes() {
			t.Errorf("%s: Table 1 row (%d nodes, %d classes, %d iters, %d cycles, %d bytes) differs from Figure 5's (%d, %d, %d, %d, %d)",
				a.Kernel.ID, a.Nodes, a.Classes, len(a.Trace.Iterations), a.Cycles.Diospyros, a.PeakEGraphBytes(),
				b.Nodes, b.Classes, len(b.Trace.Iterations), b.Cycles.Diospyros, b.PeakEGraphBytes())
		}
		if a.Cycles.NaiveFixed != 0 || b.Cycles.NaiveFixed == 0 {
			t.Errorf("%s: baselines ran in Table 1 (%d) or not in Figure 5 (%d)", a.Kernel.ID, a.Cycles.NaiveFixed, b.Cycles.NaiveFixed)
		}
	}
}
