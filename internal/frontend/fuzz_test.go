package frontend

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// FuzzLift pins the frontend's contract on arbitrary source: Parse either
// rejects it with an error, or Lift on the parsed kernel returns (with or
// without an error) instead of panicking. The seeds are the repository's
// example kernels, the empty-output kernel that once reached the builder's
// "no outputs declared" panic, and the runaway loops the work budget
// stops (hostileLoops).
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
	f.Add("kernel A()->(){}")
	f.Add("kernel A(a[2])->(){}")
	for _, h := range hostileLoops {
		f.Add(h.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		k, err := Parse(src)
		if err != nil {
			return
		}
		_, _ = Lift(k)
	})
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
