package egraph

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"diospyros/internal/expr"
)

func TestAddHashconsing(t *testing.T) {
	g := New()
	a1 := g.AddExpr(expr.MustParse("(+ (Get a 0) (Get b 0))"))
	a2 := g.AddExpr(expr.MustParse("(+ (Get a 0) (Get b 0))"))
	if a1 != a2 {
		t.Fatalf("identical exprs got different classes: %d vs %d", a1, a2)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3 (two Gets, one +)", g.NumNodes())
	}
	b := g.AddExpr(expr.MustParse("(+ (Get b 0) (Get a 0))"))
	if b == a1 {
		t.Fatal("commuted expr should be a different class (no AC by default)")
	}
}

func TestLookup(t *testing.T) {
	g := New()
	id := g.AddExpr(expr.MustParse("(* x y)"))
	x, _ := g.Lookup(g.LeafNode(expr.OpSym, 0, "x", 0))
	y, _ := g.Lookup(g.LeafNode(expr.OpSym, 0, "y", 0))
	got, ok := g.Lookup(ENode{Op: expr.OpMul, Args: []ClassID{x, y}})
	if !ok || got != id {
		t.Fatalf("Lookup = %d, %v; want %d, true", got, ok, id)
	}
	if _, ok := g.Lookup(ENode{Op: expr.OpAdd, Args: []ClassID{x, y}}); ok {
		t.Fatal("Lookup found a node that was never added")
	}
}

// TestLookupAllocationFreeAtEveryArity probes List nodes of 0 to 40
// children, past the hash's one-buffer width, through stale child IDs: a
// hit allocates nothing at any arity.
func TestLookupAllocationFreeAtEveryArity(t *testing.T) {
	g := New()
	a, b := g.AddExpr(expr.Sym("a")), g.AddExpr(expr.Sym("b"))
	g.Union(a, b)
	g.Rebuild()
	for arity := 0; arity <= 40; arity++ {
		n := ENode{Op: expr.OpList, Args: make([]ClassID, arity)}
		for i := range n.Args {
			n.Args[i] = a
		}
		id := g.Add(n)
		for i := range n.Args {
			n.Args[i] = b
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if got, ok := g.Lookup(n); !ok || got != id {
				t.Fatalf("List/%d: Lookup = %d, %v; want %d, true", arity, got, ok, id)
			}
		}); allocs != 0 {
			t.Fatalf("List/%d: Lookup allocates %.0f times", arity, allocs)
		}
	}
}

func TestUnionFind(t *testing.T) {
	g := New()
	x := g.AddExpr(expr.Sym("x"))
	y := g.AddExpr(expr.Sym("y"))
	z := g.AddExpr(expr.Sym("z"))
	if _, changed := g.Union(x, y); !changed {
		t.Fatal("first union should change the graph")
	}
	if _, changed := g.Union(x, y); changed {
		t.Fatal("repeated union should not change the graph")
	}
	g.Union(y, z)
	g.Rebuild()
	if g.Find(x) != g.Find(z) {
		t.Fatal("union not transitive")
	}
	if g.NumClasses() != 1 {
		t.Fatalf("NumClasses = %d, want 1", g.NumClasses())
	}
}

// TestCongruenceClosure is the canonical e-graph test: after asserting a = b,
// f(a) and f(b) must become equal when the graph is rebuilt.
func TestCongruenceClosure(t *testing.T) {
	g := New()
	fa := g.AddExpr(expr.MustParse("(sqrt a)"))
	fb := g.AddExpr(expr.MustParse("(sqrt b)"))
	if g.Find(fa) == g.Find(fb) {
		t.Fatal("f(a) and f(b) equal before union")
	}
	a, _ := g.Lookup(g.LeafNode(expr.OpSym, 0, "a", 0))
	b, _ := g.Lookup(g.LeafNode(expr.OpSym, 0, "b", 0))
	g.Union(a, b)
	g.Rebuild()
	if g.Find(fa) != g.Find(fb) {
		t.Fatal("congruence not restored: sqrt(a) != sqrt(b) after a=b")
	}
	if bad := g.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariant violations: %v", bad)
	}
}

// Nested congruence: a=b should propagate through g(f(x)) chains.
func TestCongruenceClosureDeep(t *testing.T) {
	g := New()
	l := g.AddExpr(expr.MustParse("(sqrt (neg (+ a 1)))"))
	r := g.AddExpr(expr.MustParse("(sqrt (neg (+ b 1)))"))
	a, _ := g.Lookup(g.LeafNode(expr.OpSym, 0, "a", 0))
	b, _ := g.Lookup(g.LeafNode(expr.OpSym, 0, "b", 0))
	g.Union(a, b)
	g.Rebuild()
	if g.Find(l) != g.Find(r) {
		t.Fatal("deep congruence not restored")
	}
}

// TestRebuildReachesNodeBehindMergedParentEntry covers the shared-node
// corner of the incremental rebuild. A class list and its parent entries
// name the same node in the node table, so repair's in-place
// canonicalization rewrites the node both see. When two congruent parents
// in different classes merge, repair keeps one parent entry and the class
// list keeps the other node, so no parent entry names the kept node any
// more. A later union of their child must still leave that class
// canonical: repair logs the class the surviving entry names, and Rebuild
// canonicalizes every logged class.
func TestRebuildReachesNodeBehindMergedParentEntry(t *testing.T) {
	g := New()
	fa := g.AddExpr(expr.MustParse("(sqrt a)"))
	g.AddExpr(expr.MustParse("(sqrt b)"))
	a, _ := g.Lookup(g.LeafNode(expr.OpSym, 0, "a", 0))
	b, _ := g.Lookup(g.LeafNode(expr.OpSym, 0, "b", 0))
	g.Union(a, b)
	g.Rebuild()
	child := g.Find(a)
	nodes, entries := g.Class(fa).Nodes, g.Class(child).parents
	if len(nodes) != 1 || len(entries) != 1 || nodes[0] == entries[0].node {
		t.Fatalf("setup: want one node and one parent entry naming different nodes, got %d nodes, %d entries",
			len(nodes), len(entries))
	}

	// c wins its union, so its rank matches the child's and c's class
	// wins the next one: the child's class loses. The match phase's walk
	// consumes the log first, so only what the last union and its repair
	// log is left for Rebuild.
	c, d := g.AddExpr(expr.MustParse("c")), g.AddExpr(expr.MustParse("d"))
	g.Union(c, d)
	g.Rebuild()
	new(dirtyWalk).walk(g, 0)
	g.Union(c, child)
	g.Rebuild()
	if g.Find(child) == child {
		t.Fatal("setup: the child's class must lose the union")
	}
	if bad := g.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariant violations: %v", bad)
	}
	if got := g.Node(g.Class(fa).Nodes[0]).Args[0]; got != g.Find(c) {
		t.Fatalf("sqrt's child is c%d, want canonical c%d", got, g.Find(c))
	}
}

func TestCongruenceMergesParentsAcrossOps(t *testing.T) {
	g := New()
	// Two different parents over the same children: (+ a c) and (* a c).
	// Unioning a=b must merge (+ a c) with (+ b c) but NOT with (* a c).
	addA := g.AddExpr(expr.MustParse("(+ a c)"))
	addB := g.AddExpr(expr.MustParse("(+ b c)"))
	mulA := g.AddExpr(expr.MustParse("(* a c)"))
	a, _ := g.Lookup(g.LeafNode(expr.OpSym, 0, "a", 0))
	b, _ := g.Lookup(g.LeafNode(expr.OpSym, 0, "b", 0))
	g.Union(a, b)
	g.Rebuild()
	if g.Find(addA) != g.Find(addB) {
		t.Fatal("congruent + parents not merged")
	}
	if g.Find(addA) == g.Find(mulA) {
		t.Fatal("* parent wrongly merged with +")
	}
}

func TestPatternParse(t *testing.T) {
	cases := []struct {
		src  string
		vars []string
	}{
		{"?a", []string{"?a"}},
		{"(+ ?a ?b)", []string{"?a", "?b"}},
		{"(+ ?a (* ?b ?a))", []string{"?a", "?b"}},
		{"(VecMAC ?acc ?b ?c)", []string{"?acc", "?b", "?c"}},
		{"(Get ?arr ?i)", nil},
		{"(+ ?a 0)", []string{"?a"}},
	}
	for _, c := range cases {
		p, err := ParsePattern(c.src)
		if err != nil {
			t.Fatalf("ParsePattern(%q): %v", c.src, err)
		}
		if got := p.Vars(); !reflect.DeepEqual(got, c.vars) {
			t.Errorf("Vars(%q) = %v, want %v", c.src, got, c.vars)
		}
	}
	for _, src := range []string{"(bogus ?a)", "(+ ?a)", "(VecMAC ?a ?b)", "(Vec)", "(neg ?a ?b)"} {
		if _, err := ParsePattern(src); err == nil {
			t.Errorf("ParsePattern(%q) succeeded, want an error", src)
		}
	}
}

// searchPattern finds every match of p, class by class over the canonical
// classes, as a pattern rule's search does; each match's Data is its Subst.
func searchPattern(g *EGraph, p *Pattern) []Match {
	ms, _ := NewRewrite("search", p, p).SearchClasses(g, g.CanonicalClasses(), nil)
	return ms
}

// bound returns the class s binds p's variable name to: a Subst holds the
// variables in first-use order.
func bound(s Subst, p *Pattern, name string) ClassID {
	return s[slices.Index(p.Vars(), name)]
}

func TestSearchPattern(t *testing.T) {
	g := New()
	g.AddExpr(expr.MustParse("(+ (Get a 0) (* (Get b 0) (Get c 0)))"))
	p := MustPattern("(+ ?x (* ?y ?z))")
	ms := searchPattern(g, p)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
	s := ms[0].Data.(Subst)
	for name, leaf := range map[string]string{"?x": "a", "?y": "b", "?z": "c"} {
		want, _ := g.Lookup(g.LeafNode(expr.OpGet, 0, leaf, 0))
		if got := bound(s, p, name); g.Find(got) != want {
			t.Errorf("%s bound to %d, want %d", name, got, want)
		}
	}
	// Nonlinear pattern: (+ ?x ?x) must not match (+ a b).
	g2 := New()
	g2.AddExpr(expr.MustParse("(+ a b)"))
	g2.AddExpr(expr.MustParse("(+ c c)"))
	ms = searchPattern(g2, MustPattern("(+ ?x ?x)"))
	if len(ms) != 1 {
		t.Fatalf("nonlinear: got %d matches, want 1", len(ms))
	}
}

func TestSearchPatternAcrossClasses(t *testing.T) {
	// After a union, patterns must see all nodes in the merged class.
	g := New()
	root := g.AddExpr(expr.MustParse("(sqrt x)"))
	alt := g.AddExpr(expr.MustParse("(* y y)"))
	g.Union(root, alt)
	g.Rebuild()
	ms := searchPattern(g, MustPattern("(sqrt (* ?a ?a))"))
	// sqrt's child class is x (not merged), so no match expected there;
	// but (sqrt x) where x ~ nothing. Instead match (* ?a ?a) inside the
	// merged root class.
	ms = searchPattern(g, MustPattern("(* ?a ?a)"))
	found := false
	for _, m := range ms {
		if g.Find(m.Class) == g.Find(root) {
			found = true
		}
	}
	if !found {
		t.Fatal("pattern did not see node added by union into merged class")
	}
}

func TestInstantiate(t *testing.T) {
	g := New()
	g.AddExpr(expr.MustParse("(+ p q)"))
	r := MustRewrite("swap", "(+ ?a ?b)", "(* ?b ?a)").(*patternRewrite)
	ms, _ := r.SearchClasses(g, g.CanonicalClasses(), nil)
	if len(ms) != 1 {
		t.Fatal("setup failed")
	}
	id, err := g.instantiate(r.rhs, ms[0].Data.(Subst))
	if err != nil {
		t.Fatal(err)
	}
	q, _ := g.Lookup(g.LeafNode(expr.OpSym, 0, "q", 0))
	p, _ := g.Lookup(g.LeafNode(expr.OpSym, 0, "p", 0))
	want, ok := g.Lookup(ENode{Op: expr.OpMul, Args: []ClassID{q, p}})
	if !ok || want != id {
		t.Fatalf("Instantiate produced class %d, want %d", id, want)
	}
	if _, err := g.instantiate(r.rhs, Subst{}); err == nil {
		t.Error("expected unbound-variable error")
	}
}

func TestRunSimpleRewrite(t *testing.T) {
	g := New()
	root := g.AddExpr(expr.MustParse("(+ (+ x 0) 0)"))
	rules := []Rewrite{MustRewrite("add-zero", "(+ ?a 0)", "?a")}
	rep := Run(g, rules, Limits{})
	if !rep.Saturated() {
		t.Fatalf("run did not saturate: %+v", rep)
	}
	x, _ := g.Lookup(g.LeafNode(expr.OpSym, 0, "x", 0))
	if g.Find(root) != g.Find(x) {
		t.Fatal("(+ (+ x 0) 0) not rewritten to x")
	}
	if n := ruleApplied(rep)["add-zero"]; n < 2 {
		t.Errorf("expected >=2 applications, got %d", n)
	}
}

func TestRunMACRewrite(t *testing.T) {
	// The paper's Figure 4: (VecAdd v1 (VecMul v2 v3)) gains a VecMAC node
	// in the same class.
	g := New()
	root := g.AddExpr(expr.MustParse("(VecAdd (Vec a 0) (VecMul (Vec b 0) (Vec c 0)))"))
	rules := []Rewrite{MustRewrite("vec-mac", "(VecAdd ?a (VecMul ?b ?c))", "(VecMAC ?a ?b ?c)")}
	rep := Run(g, rules, Limits{})
	if !rep.Saturated() {
		t.Fatalf("did not saturate: %+v", rep)
	}
	found := false
	for _, n := range g.Class(root).Nodes {
		if g.Node(n).Op == expr.OpVecMAC {
			found = true
		}
	}
	if !found {
		t.Fatal("VecMAC node not in root class after rewrite")
	}
}

func TestRunNodeLimit(t *testing.T) {
	// Distribution over a deep sum explodes before it saturates; a small
	// node limit must stop the run and leave the graph consistent.
	g := New()
	g.AddExpr(expr.MustParse("(* a (+ b (+ c (+ d (+ e (+ f h))))))"))
	n0 := g.NumNodes()
	rules := []Rewrite{
		MustRewrite("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))"),
		MustRewrite("commute-mul", "(* ?a ?b)", "(* ?b ?a)"),
		MustRewrite("assoc-add", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
	}
	rep := Run(g, rules, Limits{MaxNodes: n0 + 8, MaxIterations: 50})
	if rep.Reason != StopNodeLimit {
		t.Fatalf("Reason = %s, want node-limit (%+v)", rep.Reason, rep)
	}
	if bad := g.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants broken after early stop: %v", bad)
	}
}

func TestRunIterLimit(t *testing.T) {
	// Associativity over a long chain needs several iterations; cap at 1.
	g := New()
	g.AddExpr(expr.MustParse("(+ (+ (+ (+ a b) c) d) e)"))
	rules := []Rewrite{
		MustRewrite("assoc-add", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
	}
	rep := Run(g, rules, Limits{MaxIterations: 1})
	if rep.Reason != StopIterLimit || rep.Iterations != 1 {
		t.Fatalf("got %+v, want 1 iteration and iter-limit", rep)
	}
}

func TestBidirectionalRulesConverge(t *testing.T) {
	// a*(b+c) = a*b + a*c in both directions should saturate (hashconsing
	// prevents infinite ping-pong).
	g := New()
	root := g.AddExpr(expr.MustParse("(* a (+ b c))"))
	rules := []Rewrite{
		MustRewrite("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))"),
		MustRewrite("factor", "(+ (* ?a ?b) (* ?a ?c))", "(* ?a (+ ?b ?c))"),
	}
	rep := Run(g, rules, Limits{MaxIterations: 10, MaxNodes: 1000})
	if !rep.Saturated() {
		t.Fatalf("did not saturate: %+v", rep)
	}
	// Both forms live in the root class.
	var ops []expr.Op
	for _, n := range g.Class(root).Nodes {
		ops = append(ops, g.Node(n).Op)
	}
	hasAdd, hasMul := false, false
	for _, op := range ops {
		if op == expr.OpAdd {
			hasAdd = true
		}
		if op == expr.OpMul {
			hasMul = true
		}
	}
	if !hasAdd || !hasMul {
		t.Fatalf("root class ops = %v, want both + and *", ops)
	}
}

// Property test: random unions preserve the e-graph invariants after Rebuild.
type unionScript struct {
	Exprs []uint8 // indices into a fixed expression pool
	Pairs []uint8
}

func (unionScript) Generate(r *rand.Rand, _ int) reflect.Value {
	s := unionScript{}
	n := 3 + r.Intn(6)
	for i := 0; i < n; i++ {
		s.Exprs = append(s.Exprs, uint8(r.Intn(len(exprPool))))
	}
	for i := 0; i < 2+r.Intn(8); i++ {
		s.Pairs = append(s.Pairs, uint8(r.Intn(n)), uint8(r.Intn(n)))
	}
	return reflect.ValueOf(s)
}

var exprPool = []string{
	"x", "y", "(+ x y)", "(* x y)", "(+ (+ x y) z)", "(sqrt x)",
	"(sqrt y)", "(* (sqrt x) (sqrt y))", "(+ x 0)", "(neg (+ x y))",
	"(Get a 0)", "(Get a 1)", "(+ (Get a 0) (Get a 1))",
	"(Vec (Get a 0) (Get a 1))", "(VecAdd (Vec x x) (Vec y y))",
}

func TestPropertyRebuildInvariants(t *testing.T) {
	f := func(s unionScript) bool {
		g := New()
		ids := make([]ClassID, len(s.Exprs))
		for i, ei := range s.Exprs {
			ids[i] = g.AddExpr(expr.MustParse(exprPool[ei]))
		}
		for i := 0; i+1 < len(s.Pairs); i += 2 {
			g.Union(ids[s.Pairs[i]], ids[s.Pairs[i+1]])
		}
		g.Rebuild()
		return len(g.CheckInvariants()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: adding the same expression twice always yields the same class,
// even interleaved with unions and rebuilds.
func TestPropertyHashconsStability(t *testing.T) {
	f := func(s unionScript) bool {
		g := New()
		ids := make([]ClassID, len(s.Exprs))
		for i, ei := range s.Exprs {
			ids[i] = g.AddExpr(expr.MustParse(exprPool[ei]))
		}
		for i := 0; i+1 < len(s.Pairs); i += 2 {
			g.Union(ids[s.Pairs[i]], ids[s.Pairs[i+1]])
			g.Rebuild()
		}
		for i, ei := range s.Exprs {
			if g.Find(g.AddExpr(expr.MustParse(exprPool[ei]))) != g.Find(ids[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClassesIterationIsCanonical(t *testing.T) {
	g := New()
	a := g.AddExpr(expr.Sym("a"))
	b := g.AddExpr(expr.Sym("b"))
	g.AddExpr(expr.MustParse("(+ c (* d e))"))
	win, _ := g.Union(a, b)
	lose := a ^ b ^ win
	g.Rebuild()
	classes := g.CanonicalClasses()
	if len(classes) != g.NumClasses() || len(classes) != 6 {
		t.Fatalf("visited %d classes, NumClasses %d, want 6", len(classes), g.NumClasses())
	}
	for i, cls := range classes {
		if g.Find(cls.ID) != cls.ID {
			t.Errorf("visited non-canonical class %d", cls.ID)
		}
		if cls.ID == lose {
			t.Errorf("union loser %d visited", lose)
		}
		if i > 0 && cls.ID <= classes[i-1].ID {
			t.Errorf("class %d after %d: IDs not strictly ascending", cls.ID, classes[i-1].ID)
		}
	}
	if g.Class(lose) != g.Class(win) {
		t.Error("Class(loser) is not the winner's class")
	}
	if cls := g.Class(ClassID(1 << 30)); cls != nil {
		t.Errorf("Class of a never-issued ID = %v, want nil", cls)
	}
	if n := testing.AllocsPerRun(10, func() { g.CanonicalClasses() }); n != 1 {
		t.Errorf("CanonicalClasses allocates %v times, want 1", n)
	}
}

func TestBackoffSchedulerBoundsExplosiveRules(t *testing.T) {
	// Full AC on a deep sum explodes; with the backoff scheduler the run
	// survives a tight node budget long enough for the useful rule to fire.
	build := func() (*EGraph, ClassID) {
		g := New()
		id := g.AddExpr(expr.MustParse("(+ (+ (+ (+ (+ (+ a b) c) d) e) f) 0)"))
		return g, id
	}
	rules := []Rewrite{
		MustRewrite("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"),
		MustRewrite("assoc-add", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
		MustRewrite("add-0", "(+ ?a 0)", "?a"),
	}
	// Without backoff the AC rules eat the node budget quickly.
	g1, _ := build()
	rep1 := Run(g1, rules, Limits{MaxNodes: 2000, MaxIterations: 64})
	if rep1.Reason != StopNodeLimit {
		t.Logf("without backoff: %s in %d iterations", rep1.Reason, rep1.Iterations)
	}
	// With backoff, the cheap simplification still lands.
	g2, root2 := build()
	rep2 := Run(g2, rules, Limits{
		MaxNodes:      2000,
		MaxIterations: 64,
		Backoff:       &Backoff{MatchLimit: 8, BanLength: 2},
	})
	simplified := g2.AddExpr(expr.MustParse("(+ (+ (+ (+ (+ a b) c) d) e) f)"))
	if g2.Find(root2) != g2.Find(simplified) {
		t.Fatalf("add-0 did not apply under backoff scheduling (%+v)", rep2)
	}
	if ruleApplied(rep2)["add-0"] == 0 {
		t.Fatal("add-0 never applied")
	}
}

func TestBackoffStillSaturatesSimpleRuns(t *testing.T) {
	g := New()
	root := g.AddExpr(expr.MustParse("(+ (+ x 0) 0)"))
	rep := Run(g, []Rewrite{MustRewrite("add-zero", "(+ ?a 0)", "?a")},
		Limits{Backoff: &Backoff{}})
	if !rep.Saturated() {
		t.Fatalf("backoff prevented saturation: %+v", rep)
	}
	x, _ := g.Lookup(g.LeafNode(expr.OpSym, 0, "x", 0))
	if g.Find(root) != g.Find(x) {
		t.Fatal("rewrite missing")
	}
}

func TestToDot(t *testing.T) {
	g := New()
	g.AddExpr(expr.MustParse("(VecAdd (Vec (Get a 0) x) (Vec 1.5 (func f y)))"))
	dot := g.ToDot()
	for _, want := range []string{
		"digraph egraph", "cluster_", "VecAdd", "Get a 0", "func f", "1.5",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
	// One cluster per class.
	if strings.Count(dot, "subgraph cluster_") != g.NumClasses() {
		t.Errorf("cluster count != class count")
	}
}

// addChain adds a chain of n fresh nodes to a new graph, each the sum of
// the last and a shared symbol: every Add misses the hashcons, creates a
// class and gains two parent entries.
func addChain(n int) *EGraph {
	g := New()
	var args [2]ClassID
	args[0] = g.AddLeaf(expr.OpSym, 0, "x", 0)
	args[1] = args[0]
	for i := 1; i < n; i++ {
		args[0] = g.Add(ENode{Op: expr.OpAdd, Args: args[:]})
	}
	return g
}

// TestAddAllocationsPerNode holds a fresh node's Add, amortized over a
// 4096-node chain and including the graph's own growth, to at most three
// allocations. The flat node store (DESIGN.md §14.6) copies children into
// the Args arena and carves classes and their first list slot from slabs,
// so most of what is left is the child's first parent entry.
func TestAddAllocationsPerNode(t *testing.T) {
	const n = 4096
	per := testing.AllocsPerRun(5, func() { addChain(n) }) / n
	t.Logf("%.2f allocations per fresh node", per)
	if per > 3 {
		t.Fatalf("Add makes %.2f allocations per fresh node, want at most 3", per)
	}
}
