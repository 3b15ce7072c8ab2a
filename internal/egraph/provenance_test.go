package egraph

import (
	"testing"

	"diospyros/internal/expr"
)

func TestProvenanceDisabledRecordsNothing(t *testing.T) {
	g := New()
	root := g.AddExpr(expr.MustParse("(+ a b)"))
	g.SetRuleContext("commute-add", 1, root) // no-op while disabled
	g.AddExpr(expr.MustParse("(+ b a)"))
	if g.ProvenanceEnabled() {
		t.Fatal("provenance reported enabled without EnableProvenance")
	}
	if n, u := g.ProvenanceStats(); n != 0 || u != 0 {
		t.Fatalf("disabled stats = (%d, %d), want (0, 0)", n, u)
	}
	if _, ok := g.NodeProvenance(g.LeafNode(expr.OpSym, 0, "a", 0)); ok {
		t.Fatal("NodeProvenance found a justification while disabled")
	}
	if g.Unions() != nil {
		t.Fatal("Unions non-nil while disabled")
	}
}

func TestProvenanceAttributesRuleContext(t *testing.T) {
	g := New()
	root := g.AddExpr(expr.MustParse("(+ a b)"))
	g.EnableProvenance()

	g.SetRuleContext("commute-add", 2, root)
	flipped := g.AddExpr(expr.MustParse("(+ b a)"))
	g.Union(root, flipped)
	g.ClearRuleContext()
	g.Rebuild()

	// Exactly one node — the new (+ b a) — is justified; a, b, and the
	// input (+ a b) predate the rule context (hashcons hits don't re-record).
	var justified []Justification
	for _, cls := range g.CanonicalClasses() {
		for _, n := range cls.Nodes {
			if j, ok := g.NodeProvenance(g.Node(n)); ok {
				justified = append(justified, j)
			}
		}
	}
	if len(justified) != 1 {
		t.Fatalf("justified nodes = %d, want 1", len(justified))
	}
	j := justified[0]
	if j.Rule != "commute-add" || j.Iteration != 2 || j.Source != root {
		t.Fatalf("justification = %+v, want {commute-add 2 %d}", j, root)
	}

	us := g.Unions()
	if len(us) != 1 || us[0].Just.Rule != "commute-add" {
		t.Fatalf("unions = %+v, want one commute-add step", us)
	}
	if n, u := g.ProvenanceStats(); n != 1 || u != 1 {
		t.Fatalf("stats = (%d, %d), want (1, 1)", n, u)
	}
}

// TestProvenanceSurvivesRebuild checks the moveKey path: a justified
// node's hashcons key changes when its children merge, and the
// justification must follow it through congruence repair.
func TestProvenanceSurvivesRebuild(t *testing.T) {
	g := New()
	a := g.AddExpr(expr.Sym("a"))
	b := g.AddExpr(expr.Sym("b"))
	g.EnableProvenance()

	g.SetRuleContext("make-sum", 1, a)
	sum := g.AddExpr(expr.MustParse("(+ a b)"))
	g.ClearRuleContext()

	// Merging a and b re-canonicalizes (+ a b)'s key during repair.
	g.Union(a, b)
	g.Rebuild()

	n := ENode{Op: expr.OpAdd, Args: []ClassID{g.Find(a), g.Find(b)}}
	j, ok := g.NodeProvenance(n)
	if !ok {
		t.Fatalf("justification lost across rebuild (class %d)", g.Find(sum))
	}
	if j.Rule != "make-sum" || j.Iteration != 1 {
		t.Fatalf("justification = %+v, want {make-sum 1 %d}", j, a)
	}
	if nodes, _ := g.ProvenanceStats(); nodes != 1 {
		t.Fatalf("provenance nodes = %d, want 1 after rekey", nodes)
	}
}

// TestProvenanceCongruentCollisionKeepsEarliest: when two separately
// justified nodes become congruent (identical keys after a merge), the
// earlier iteration's justification wins.
func TestProvenanceCongruentCollisionKeepsEarliest(t *testing.T) {
	g := New()
	a := g.AddExpr(expr.Sym("a"))
	b := g.AddExpr(expr.Sym("b"))
	c := g.AddExpr(expr.Sym("c"))
	g.EnableProvenance()

	g.SetRuleContext("first", 1, a)
	g.AddExpr(expr.MustParse("(+ a c)"))
	g.SetRuleContext("second", 3, b)
	g.AddExpr(expr.MustParse("(+ b c)"))
	g.ClearRuleContext()

	g.Union(a, b)
	g.Rebuild()

	n := ENode{Op: expr.OpAdd, Args: []ClassID{g.Find(a), g.Find(c)}}
	j, ok := g.NodeProvenance(n)
	if !ok {
		t.Fatal("justification lost after congruent merge")
	}
	if j.Rule != "first" || j.Iteration != 1 {
		t.Fatalf("justification = %+v, want the earlier {first 1}", j)
	}
}

// TestRunnerRecordsProvenance drives provenance through the saturation
// runner: every justified node names a real rule and a valid iteration.
func TestRunnerRecordsProvenance(t *testing.T) {
	e, rules := saturationWorkload(4)
	g := New()
	g.AddExpr(e)
	g.EnableProvenance()
	rep := Run(g, rules, Limits{MaxIterations: 3, MaxNodes: 10_000})

	names := map[string]bool{}
	for _, r := range rules {
		names[r.Name()] = true
	}
	count := 0
	for _, cls := range g.CanonicalClasses() {
		for _, n := range cls.Nodes {
			j, ok := g.NodeProvenance(g.Node(n))
			if !ok {
				continue
			}
			count++
			if !names[j.Rule] {
				t.Fatalf("justified by unknown rule %q", j.Rule)
			}
			if j.Iteration < 1 || j.Iteration > rep.Iterations {
				t.Fatalf("iteration %d outside run's 1..%d", j.Iteration, rep.Iterations)
			}
		}
	}
	if count == 0 {
		t.Fatal("saturation run recorded no justified nodes")
	}
	if rep.Applied > 0 && len(g.Unions()) == 0 {
		t.Fatal("rules applied but no unions recorded")
	}
}
