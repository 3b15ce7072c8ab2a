package egraph

import (
	"testing"

	"diospyros/internal/expr"
)

// recountFootprint recomputes the incremental footprint counters from
// scratch by walking the graph — the ground truth the O(1) counters must
// agree with after any sequence of adds, unions, and rebuilds.
func recountFootprint(g *EGraph) (argCount int64, restBytes int64, symBytes int64, parentCount int) {
	for _, page := range g.nodes {
		for _, n := range page {
			argCount += int64(len(n.Args))
		}
	}
	for _, cls := range g.CanonicalClasses() {
		parentCount += len(cls.parents)
	}
	for k := range g.memo {
		restBytes += k.restBytes()
	}
	for _, name := range g.syms.names {
		symBytes += int64(len(name))
	}
	return
}

func checkFootprintConsistent(t *testing.T, g *EGraph, when string) {
	t.Helper()
	args, rest, symBytes, parents := recountFootprint(g)
	if g.argCount != args {
		t.Errorf("%s: argCount = %d, recount = %d", when, g.argCount, args)
	}
	if g.memoRestBytes != rest {
		t.Errorf("%s: memoRestBytes = %d, recount = %d", when, g.memoRestBytes, rest)
	}
	if g.syms.nameBytes != symBytes {
		t.Errorf("%s: symbol nameBytes = %d, recount = %d", when, g.syms.nameBytes, symBytes)
	}
	if g.parentCount != parents {
		t.Errorf("%s: parentCount = %d, recount = %d", when, g.parentCount, parents)
	}
	if total, fp := g.FootprintBytes(), g.Footprint(); total != fp.Total {
		t.Errorf("%s: FootprintBytes = %d, Footprint().Total = %d", when, total, fp.Total)
	}
}

// TestFootprintMatchesRecount drives adds, unions, and a full saturation and
// checks the incremental counters against a brute-force recount at each
// stage. This is the invariant that keeps Footprint() honest without paying
// for graph walks at runtime.
func TestFootprintMatchesRecount(t *testing.T) {
	g := New()
	g.AddExpr(expr.MustParse("(+ (* a (+ b c)) (* a 0))"))
	checkFootprintConsistent(t, g, "after AddExpr")

	a := g.AddExpr(expr.MustParse("(* a b)"))
	b := g.AddExpr(expr.MustParse("(* b a)"))
	g.Union(a, b)
	g.Rebuild()
	checkFootprintConsistent(t, g, "after union+rebuild")

	rules := []Rewrite{
		MustRewrite("mul-zero", "(* ?a 0)", "0"),
		MustRewrite("add-zero", "(+ ?a 0)", "?a"),
		MustRewrite("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))"),
		MustRewrite("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"),
		MustRewrite("comm-mul", "(* ?a ?b)", "(* ?b ?a)"),
	}
	rep := Run(g, rules, Limits{MaxIterations: 8})
	if rep.Iterations == 0 {
		t.Fatal("saturation did not run")
	}
	checkFootprintConsistent(t, g, "after saturation")
	if fp := g.Footprint(); fp.Nodes.Entries != g.NumNodes() || fp.Nodes.Bytes <= 0 {
		t.Errorf("node component = %+v, want %d entries with positive bytes",
			fp.Nodes, g.NumNodes())
	}
}

// TestFootprintWithProvenance checks the provenance store's share appears
// once explanations are armed, and that the counters stay consistent through
// a provenance-recording run.
func TestFootprintWithProvenance(t *testing.T) {
	g := New()
	g.EnableProvenance()
	g.AddExpr(expr.MustParse("(+ (* a (+ b c)) 0)"))
	rules := []Rewrite{
		MustRewrite("add-zero", "(+ ?a 0)", "?a"),
		MustRewrite("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))"),
	}
	Run(g, rules, Limits{MaxIterations: 8})
	checkFootprintConsistent(t, g, "after provenance run")
	if fp := g.Footprint(); fp.Provenance.Entries == 0 || fp.Provenance.Bytes <= 0 {
		t.Errorf("provenance component empty after recorded run: %+v", fp.Provenance)
	}
}

// TestRunReportsPeakFootprint checks the runner tracks a peak breakdown and
// that its peak total is at least the final footprint of a growing search.
func TestRunReportsPeakFootprint(t *testing.T) {
	g := New()
	g.AddExpr(expr.MustParse("(* a (+ b (+ c d)))"))
	rules := []Rewrite{
		MustRewrite("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))"),
		MustRewrite("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"),
	}
	rep := Run(g, rules, Limits{MaxIterations: 6})
	if rep.PeakFootprint.Total <= 0 {
		t.Fatalf("PeakFootprint.Total = %d, want > 0", rep.PeakFootprint.Total)
	}
	if rep.PeakIteration <= 0 {
		t.Fatalf("PeakIteration = %d, want >= 1", rep.PeakIteration)
	}
	if final := g.FootprintBytes(); rep.PeakFootprint.Total < final {
		t.Errorf("peak %d below final footprint %d", rep.PeakFootprint.Total, final)
	}
}

// TestFootprintNilJournalSafe checks that the flight recorder costs the
// footprint nothing: a run with a nil journal and one with an armed journal
// report the same peak, component by component, and the same per-iteration
// byte trajectory.
func TestFootprintNilJournalSafe(t *testing.T) {
	run := func(j *Journal) Report {
		g := New()
		g.AddExpr(expr.MustParse("(* a (+ b (+ c d)))"))
		return Run(g, []Rewrite{
			MustRewrite("distribute", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))"),
			MustRewrite("comm-add", "(+ ?a ?b)", "(+ ?b ?a)"),
		}, Limits{MaxIterations: 4, Journal: j})
	}
	plain, armed := run(nil), run(NewJournal())
	if plain.PeakFootprint.Total <= 0 {
		t.Fatalf("journal-less run lost its peak: %+v", plain.PeakFootprint)
	}
	if plain.PeakFootprint != armed.PeakFootprint || plain.PeakIteration != armed.PeakIteration {
		t.Fatalf("armed peak %+v at %d, journal-less %+v at %d",
			armed.PeakFootprint, armed.PeakIteration, plain.PeakFootprint, plain.PeakIteration)
	}
	for i := range plain.Iters {
		if plain.Iters[i].Bytes != armed.Iters[i].Bytes {
			t.Fatalf("iteration %d bytes: armed %d, journal-less %d",
				i+1, armed.Iters[i].Bytes, plain.Iters[i].Bytes)
		}
	}
}
