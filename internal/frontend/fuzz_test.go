package frontend

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diospyros/internal/expr"
)

// FuzzLift pins the frontend's contract on arbitrary source: Parse either
// rejects it with an error, or Lift on the parsed kernel returns (with or
// without an error) instead of panicking. It is also a differential check
// of the symbolic domain's folds against the concrete one: when Lift and
// Interp both succeed on a kernel that calls no user function, and every
// value Interp computes is finite, the lifted spec evaluated on the same
// seeded inputs must equal Interp's outputs to 1e-9 relative. (The folds
// hold over ℝ; 0·x and x-x drop an x that may be Inf or NaN, and sgn maps NaN to
// 1, so only finite runs compare.) The seeds are the repository's example
// kernels, a kernel that meets every fold (foldsKernel), the empty-output
// kernels the checker rejects, the runaway loops the work budget stops
// (hostileLoops) and a float let shadowing an int one (shadowKernel).
func FuzzLift(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/*.dios")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed kernels under testdata (err %v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(foldsKernel)
	f.Add("kernel A()->(){}")
	f.Add("kernel A(a[2])->(){}")
	for _, h := range hostileLoops {
		f.Add(h.src)
	}
	f.Add(shadowKernel)
	f.Fuzz(func(t *testing.T, src string) {
		k, err := Parse(src)
		if err != nil {
			return
		}
		lifted, err := Lift(k)
		if err != nil || len(k.UserFuncs) > 0 {
			return
		}
		r := rand.New(rand.NewSource(1))
		env := expr.NewEnv()
		var arrays []Array[float64]
		for _, p := range k.Params {
			vals := make([]float64, p.Len())
			for i := range vals {
				vals[i] = r.Float64()*4 - 2
			}
			env.Arrays[p.Name] = vals
			arrays = append(arrays, &slice[float64]{dims: p.Dims, vals: vals})
		}
		dom := &finite{ok: true}
		outs := make([]*slice[float64], len(k.Outs))
		for i, p := range k.Outs {
			outs[i] = zeros[float64](dom, p.Dims)
			arrays = append(arrays, outs[i])
		}
		if err := Run[float64](context.Background(), k, dom, arrays); err != nil || !dom.ok {
			return
		}
		var want []float64
		for _, o := range outs {
			want = append(want, o.vals...)
		}
		v, err := lifted.Spec.Eval(env)
		if err != nil {
			t.Fatalf("lifted spec does not evaluate: %v\n%s", err, src)
		}
		for i, w := range want {
			if got := v.Elems[i]; !(math.Abs(got-w) <= 1e-9*math.Max(1, math.Abs(w))) {
				t.Fatalf("output %d: lift %g, Interp %g\n%s", i, got, w, src)
			}
		}
	})
}

// foldsKernel meets each of the symbolic domain's folds at least once.
const foldsKernel = `kernel folds(a[2]) -> (o[7]) {
    o[0] = 0.0 + a[0] + 0.0 - 0.0;
    o[1] = 1.0 * a[1] * 1.0 / 1.0 + 0.0 * a[0] + a[1] * 0.0 - a[0];
    o[2] = (2.0 + 3.0) * (2.0 - 7.0) / (6.0 * 4.0) + o[0];
    o[3] = -(2.0) + sqrt(0.0) + sqrt(1.0) + sqrt(4.0) + sqrt(a[0] * a[0]);
    o[4] = sgn(-3.0) + sgn(0.0) + sgn(a[1]) + abs(a[0]) + abs(-2.5) + -a[1];
    o[5] = o[5] + o[4] * o[3];
    o[6] = -(-a[0]) + (a[1] - a[1]) + sqrt(9.0) + sqrt(2.0);
}`

// shadowKernel assigns a float let that shadows an int let of its name:
// the assignment writes the float, and o is [3.5, a[0]].
const shadowKernel = `kernel k(a[1]) -> (o[2]) {
    let x = 1;
    for i in 0..1 {
        let x = 2.0;
        x = 3.5;
        o[0] = x;
    }
    o[x] = a[0];
}`

// finite is Interp's domain, noting in ok whether every value it computes
// is finite (a literal always is: the lexer rejects one out of range).
type finite struct {
	concrete
	ok bool
}

func (d *finite) note(v float64) float64 {
	d.ok = d.ok && !math.IsInf(v, 0) && !math.IsNaN(v)
	return v
}

func (d *finite) Arith(op string, l, r float64, pos Pos) (float64, error) {
	v, err := d.concrete.Arith(op, l, r, pos)
	return d.note(v), err
}

func (d *finite) Neg(x float64, pos Pos) (float64, error) {
	v, err := d.concrete.Neg(x, pos)
	return d.note(v), err
}

func (d *finite) Call(name string, args []float64, pos Pos) (float64, error) {
	v, err := d.concrete.Call(name, args, pos)
	return d.note(v), err
}

// hostileLoops are kernels that need far more than maxWork (a long for,
// a nested for, a long while, a short loop over 300 integer lets, a var
// array of 10^10 elements, a parameter whose element count overflows an
// int, and two parameters that together pass the budget), each with the
// position where the budget trips. The fourth builds a float sum per
// iteration: Lift stops at MaxSpecNodes, Interp at maxWork, both on line 2.
var hostileLoops = []struct{ src, pos string }{
	{"kernel k(a[1]) -> (o[1]) {\n    for i in 0..2000000000 {}\n}", "2:5:"},
	{"kernel k(a[1]) -> (o[1]) {\n    for i in 0..100000 {\n        for j in 0..100000 {}\n    }\n}", "3:9:"},
	{"kernel k(a[1]) -> (o[1]) {\n    let i = 0;\n    while i < 1000000000 { i = i + 1; }\n}", "3:"},
	{"kernel k(a[1]) -> (o[1]) {\n    for i in 0..2000000000 { o[0] = o[0] + a[0]; }\n}", "2:"},
	{letsKernel(499_000), "150:24:"},
	{"kernel k(a[1]) -> (o[1]) {\n    var t[100000][100000];\n}", "2:5:"},
	{hugeShapeKernel, "1:10:"},
	{"kernel k(a[1500000], b[1500000]) -> (o[1]) { o[0] = 1.0; }", "1:22:"},
}

// hugeShapeKernel declares 3037000500² input elements, past the largest
// int; it must be rejected before anything sizes an array for it.
const hugeShapeKernel = "kernel k(a[3037000500][3037000500]) -> (o[1]) { o[0] = 1.0; }"

// letsKernel is a kernel of a few kilobytes whose loop body is 300
// integer lets, run trips times: much work in few iterations.
func letsKernel(trips int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel k(a[1]) -> (o[1]) {\n    for i in 0..%d {\n", trips)
	for j := range 300 {
		fmt.Fprintf(&b, "        let v%d = i * %d + %d;\n", j, j, j)
	}
	b.WriteString("    }\n    o[0] = a[0];\n}\n")
	return b.String()
}

// TestLoopBudgetTripsFast checks that lifting and interpreting each
// hostile loop fail within a second with a budget error at its position.
func TestLoopBudgetTripsFast(t *testing.T) {
	for _, h := range hostileLoops {
		k, err := Parse(h.src)
		if err != nil {
			t.Fatal(err)
		}
		run := map[string]func() error{
			"Lift": func() error { _, err := Lift(k); return err },
			"Interp": func() error {
				_, err := Interp(k, map[string][]float64{"a": {1}}, nil)
				return err
			},
		}
		for name, f := range run {
			start := time.Now()
			err := f()
			if d := time.Since(start); d > time.Second {
				t.Errorf("%s took %v to stop\n%s", name, d, h.src)
			}
			if err == nil || !strings.HasPrefix(err.Error(), h.pos) || !strings.Contains(err.Error(), "budget") {
				t.Errorf("%s: got %v, want a budget error at %s\n%s", name, err, h.pos, h.src)
			}
		}
	}
}

// TestSpecBudgetTripsWithinLoopBudget lifts a loop that stays inside
// maxWork but builds more than MaxSpecNodes DSL nodes: Lift must stop at
// the sum in the loop body, while Interp, which builds no nodes, runs it
// to the end.
func TestSpecBudgetTripsWithinLoopBudget(t *testing.T) {
	k, err := Parse("kernel k(a[4]) -> (o[1]) {\n    for i in 0..150000 {\n        o[0] = o[0] + a[i % 4];\n    }\n}")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = Lift(k)
	if d := time.Since(start); d > time.Second {
		t.Errorf("Lift took %v to stop", d)
	}
	if err == nil || !strings.HasPrefix(err.Error(), "3:") || !strings.Contains(err.Error(), fmt.Sprintf("budget of %d nodes", MaxSpecNodes)) {
		t.Errorf("Lift: got %v, want the node budget at line 3", err)
	}
	out, err := Interp(k, map[string][]float64{"a": {1, 2, 3, 4}}, nil)
	if err != nil || out["o"][0] != 375_000 {
		t.Errorf("Interp: got %v, %v; want o[0] = 375000", out, err)
	}
}

// TestLoopAllocationsIndependentOfTripCount checks that an empty-body for
// loop costs Lift and Interp the same allocations at 1,000 and 100,000
// iterations: the loop's body scope is reused, not allocated per
// iteration.
func TestLoopAllocationsIndependentOfTripCount(t *testing.T) {
	allocs := func(trips int) (lift, interp float64) {
		k, err := Parse(fmt.Sprintf("kernel k(a[1]) -> (o[1]) {\n    for i in 0..%d { }\n}", trips))
		if err != nil {
			t.Fatal(err)
		}
		lift = testing.AllocsPerRun(3, func() {
			if _, err := Lift(k); err != nil {
				t.Fatal(err)
			}
		})
		in := map[string][]float64{"a": {1}}
		interp = testing.AllocsPerRun(3, func() {
			if _, err := Interp(k, in, nil); err != nil {
				t.Fatal(err)
			}
		})
		return lift, interp
	}
	lift1k, interp1k := allocs(1_000)
	lift100k, interp100k := allocs(100_000)
	if lift1k != lift100k {
		t.Errorf("Lift allocates %.0f times at 1,000 iterations, %.0f at 100,000", lift1k, lift100k)
	}
	if interp1k != interp100k {
		t.Errorf("Interp allocates %.0f times at 1,000 iterations, %.0f at 100,000", interp1k, interp100k)
	}
}
