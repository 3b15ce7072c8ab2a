package diospyros

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"diospyros/internal/egraph"
	"diospyros/internal/expr"
	"diospyros/internal/isa"
	"diospyros/internal/kernels"
)

// TestMultiTargetCompile runs one saturation search and extracts once per
// target, checking each target's program is runnable and agrees with the
// specification.
func TestMultiTargetCompile(t *testing.T) {
	l := kernels.MatMul(2, 2, 2)
	opts := testOpts()
	opts.Targets = []string{"fg3lite-4", "fg3lite-8", "scalar"}
	res, err := Compile(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) != 3 {
		t.Fatalf("got %d target results, want 3", len(res.Targets))
	}
	wantWidths := map[string]int{"fg3lite-4": 4, "fg3lite-8": 8, "scalar": 1}
	for i, name := range opts.Targets {
		tr := res.Targets[i]
		if tr.Target != name {
			t.Fatalf("Targets[%d] = %s, want %s (request order)", i, tr.Target, name)
		}
		if tr.Width != wantWidths[name] {
			t.Errorf("%s: width %d, want %d", name, tr.Width, wantWidths[name])
		}
		if tr.Program == nil {
			t.Fatalf("%s: no assembly program", name)
		}
		if tr.VIR == nil || tr.VIR.Width != tr.Width {
			t.Errorf("%s: missing or wrong-width IR", name)
		}
		if tr.C == "" {
			t.Errorf("%s: no C output", name)
		}
		if tr.Cycles <= 0 {
			t.Errorf("%s: no simulated cycle count", name)
		}
		if tr.Cost <= 0 {
			t.Errorf("%s: non-positive cost %g", name, tr.Cost)
		}
	}
	// Primary fields mirror the first requested target.
	if res.Program != res.Targets[0].Program || res.C != res.Targets[0].C ||
		res.VIR != res.Targets[0].VIR || res.Optimized != res.Targets[0].Optimized {
		t.Error("primary result fields do not mirror Targets[0]")
	}
	// The scalar target must not use vector instructions.
	for _, in := range res.Targets[2].VIR.Instrs {
		if in.Op.IsVectorValue() {
			t.Fatalf("scalar target IR contains vector op %s", in.Op)
		}
	}
	// Every target's program computes the specification.
	r := rand.New(rand.NewSource(7))
	in := randIn(r, l)
	env := expr.NewEnv()
	for k, v := range in {
		env.Arrays[k] = v
	}
	want, err := l.Spec.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	flat := want.AsSlice()
	for _, name := range opts.Targets {
		got, _, err := res.RunTarget(name, in, nil)
		if err != nil {
			t.Fatalf("%s: RunTarget: %v", name, err)
		}
		for i, wv := range flat {
			if math.Abs(got["c"][i]-wv) > 1e-9 {
				t.Fatalf("%s: c[%d] = %g, want %g", name, i, got["c"][i], wv)
			}
		}
	}
	if _, _, err := res.RunTarget("fg3lite-16", in, nil); err == nil {
		t.Error("RunTarget accepted a target that was not compiled")
	}
}

// TestMultiTargetDedup: duplicate names collapse, order preserved.
func TestMultiTargetDedup(t *testing.T) {
	opts := testOpts()
	opts.Targets = []string{"fg3lite-8", "fg3lite-4", "fg3lite-8"}
	targets, err := resolveTargets(opts.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 2 || targets[0].Name != "fg3lite-8" || targets[1].Name != "fg3lite-4" {
		t.Fatalf("resolveTargets = %v", targets)
	}
}

// TestResolveTargetsByName: Targets is the only selector, an empty list
// means the default target, and any registered or width-parametric name
// resolves to itself.
func TestResolveTargetsByName(t *testing.T) {
	for _, tc := range []struct {
		targets []string
		want    string
	}{{nil, "fg3lite-4"}, {[]string{"fg3lite-4"}, "fg3lite-4"}, {[]string{"fg3lite-8"}, "fg3lite-8"},
		{[]string{"fg3lite-2"}, "fg3lite-2"}, {[]string{"scalar"}, "scalar"}} {
		targets, err := resolveTargets(Options{Targets: tc.targets}.withDefaults())
		if err != nil {
			t.Fatalf("%v: %v", tc.targets, err)
		}
		if len(targets) != 1 || targets[0].Name != tc.want {
			t.Fatalf("%v resolved to %v, want %s", tc.targets, targets, tc.want)
		}
	}
	if _, err := resolveTargets(Options{Targets: []string{"no-such-machine"}}.withDefaults()); err == nil {
		t.Fatal("unknown target accepted")
	}
}

// TestRuleSetFollowsTargets pins the target list → rule set step that
// compiles and -dump-egraph share: saturating a three-lane List under a
// scalar-only list introduces no Vec, and under fg3lite-4,fg3lite-8 it
// chunks the List at each width.
func TestRuleSetFollowsTargets(t *testing.T) {
	for _, tc := range []struct {
		targets []string
		want    []int // Vec widths in the saturated graph
	}{
		{[]string{"scalar"}, nil},
		{[]string{"fg3lite-4", "fg3lite-8"}, []int{4, 8}},
	} {
		rs, err := RuleSet(Options{Targets: tc.targets})
		if err != nil {
			t.Fatal(err)
		}
		g := egraph.New()
		g.AddExpr(expr.MustParse("(List (* a b) (+ c d) e)"))
		egraph.Run(g, rs, egraph.Limits{MaxIterations: 8})
		seen := map[int]bool{}
		for _, cls := range g.CanonicalClasses() {
			for _, ni := range cls.Nodes {
				if n := g.Node(ni); n.Op == expr.OpVec {
					seen[len(n.Args)] = true
				}
			}
		}
		var got []int
		for w := range seen {
			got = append(got, w)
		}
		slices.Sort(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v: Vec widths %v, want %v", tc.targets, got, tc.want)
		}
	}
}

// TestNoBackendError: a registered target without an assembly backend still
// compiles to IR and C, and Run reports the typed ErrNoBackend.
func TestNoBackendError(t *testing.T) {
	custom := &isa.Target{
		Name:        "cc-only-4",
		Width:       4,
		ShuffleCaps: isa.ShuffleCaps{SingleRegister: true, TwoRegister: true},
		HasAssembly: false,
	}
	if err := isa.RegisterTarget(custom); err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.Targets = []string{"cc-only-4"}
	res, err := Compile(kernels.MatMul(2, 2, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Program != nil {
		t.Fatal("backend-less target produced assembly")
	}
	if res.C == "" {
		t.Fatal("backend-less target produced no C")
	}
	_, _, err = res.Run(nil, nil)
	if !errors.Is(err, ErrNoBackend) {
		t.Fatalf("Run error = %v, want ErrNoBackend", err)
	}
	var nbe *NoBackendError
	if !errors.As(err, &nbe) || nbe.Target != "cc-only-4" {
		t.Fatalf("error does not name the target: %v", err)
	}
	_, _, err = res.RunTarget("cc-only-4", nil, nil)
	if !errors.Is(err, ErrNoBackend) {
		t.Fatalf("RunTarget error = %v, want ErrNoBackend", err)
	}
}

// TestKeptProgramsCarryNoExtraCapacity holds the assembly a Result keeps,
// and diosserve caches, to no more spare capacity than growing it one
// append at a time would leave. (The kept VIR is held to none at all by
// TestKeptVIRIsCompact.) MatMul 10x10 rematerializes at fg3lite-8 and
// scalar.
func TestKeptProgramsCarryNoExtraCapacity(t *testing.T) {
	res, err := Compile(kernels.MatMul(10, 10, 10),
		Options{Targets: []string{"fg3lite-4", "fg3lite-8", "scalar"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Targets {
		if tr.Program == nil {
			continue
		}
		if n, c := len(tr.Program.Instrs), cap(tr.Program.Instrs); c > appendCap[isa.Instr](n) {
			t.Errorf("%s: assembly keeps %d instrs in capacity %d, append growth leaves %d",
				tr.Target, n, c, appendCap[isa.Instr](n))
		}
	}
}

// appendCap is the capacity a slice of n elements ends with when it is
// grown from nil by appending one element at a time.
func appendCap[T any](n int) int {
	var s []T
	for len(s) < n {
		s = append(s, *new(T))
	}
	return cap(s)
}

// TestScalarCCompiles hands the scalar target's C for each testdata source
// to the host C compiler's syntax check, with an empty fg3_intrinsics.h
// (scalar code calls no intrinsic). It skips when no C compiler is on PATH.
func TestScalarCCompiles(t *testing.T) {
	cc, err := exec.LookPath("gcc")
	if err != nil {
		if cc, err = exec.LookPath("cc"); err != nil {
			t.Skip("no C compiler on PATH")
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fg3_intrinsics.h"), nil, 0o644); err != nil {
		t.Fatal(err)
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
		res, err := CompileSource(string(src), Options{Targets: []string{"scalar"}})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		c := filepath.Join(dir, filepath.Base(path)+".c")
		if err := os.WriteFile(c, []byte(res.Targets[0].C), 0o644); err != nil {
			t.Fatal(err)
		}
		if out, err := exec.Command(cc, "-fsyntax-only", c).CombinedOutput(); err != nil {
			t.Errorf("%s: %s -fsyntax-only: %v\n%s", path, cc, err, out)
		}
	}
}
