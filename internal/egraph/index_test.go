package egraph

import (
	"slices"
	"testing"

	"diospyros/internal/expr"
)

// TestPatternReadDepth pins the read depth a syntactic rule derives from
// its left-hand side: variables read nothing, every non-variable argument
// one more hop.
func TestPatternReadDepth(t *testing.T) {
	for _, tc := range []struct {
		lhs  string
		want int
	}{
		{"?a", 0},
		{"(- ?a ?a)", 0},
		{"(+ ?a ?b)", 0},
		{"(+ ?a 0)", 1},
		{"(neg (neg ?a))", 1},
		{"(* (neg ?a) ?b)", 1},
		{"(+ (+ ?a ?b) ?c)", 1},
		{"(+ ?a (* ?b (neg ?c)))", 2},
	} {
		if got := MustRewrite("r", tc.lhs, "?a").ReadDepth(); got != tc.want {
			t.Errorf("ReadDepth of %s = %d, want %d", tc.lhs, got, tc.want)
		}
	}
}

// spyRule is a rewrite that records the classes each SearchClasses
// call is handed. It matches at one class, and its applier makes one
// change to the graph (the first apply changes it; later ones do not).
type spyRule struct {
	depth  int
	at     ClassID
	change func(g *EGraph) bool
	calls  [][]ClassID
}

func (s *spyRule) Name() string       { return "spy" }
func (s *spyRule) RootOps() []expr.Op { return nil }
func (s *spyRule) ReadDepth() int     { return s.depth }

func (s *spyRule) SearchClasses(g *EGraph, classes []*EClass) []Match {
	var ids []ClassID
	var out []Match
	for _, cls := range classes {
		ids = append(ids, cls.ID)
		if cls.ID == g.Find(s.at) {
			out = append(out, Match{Class: cls.ID})
		}
	}
	s.calls = append(s.calls, ids)
	return out
}

func (s *spyRule) Apply(g *EGraph, _ Match) bool { return s.change(g) }

// researched runs the spy to saturation and returns the classes its second
// iteration searched again.
func (s *spyRule) researched(t *testing.T, g *EGraph) []ClassID {
	t.Helper()
	rep := Run(g, []Rewrite{s}, Limits{})
	if rep.Iterations != 2 || len(s.calls) != 2 {
		t.Fatalf("%d iterations, %d searches; want 2 of each", rep.Iterations, len(s.calls))
	}
	return s.calls[1]
}

// TestReadDepthBoundsResearch checks the dirty walk exactly: after a change
// at the bottom of a chain of neg nodes, a rule of read depth d searches
// again the class d hops above the change, and not the class d+1 hops
// above it.
func TestReadDepthBoundsResearch(t *testing.T) {
	for depth := 0; depth <= 3; depth++ {
		g := New()
		chain := []ClassID{g.AddLeaf(expr.OpSym, 0, "a", 0)}
		for i := 0; i < 5; i++ {
			chain = append(chain, g.Add(ENode{Op: expr.OpNeg, Args: []ClassID{chain[i]}}))
		}
		bottom := chain[0]
		s := &spyRule{depth: depth, at: bottom, change: func(g *EGraph) bool {
			_, changed := g.Union(bottom, g.AddLit(7))
			return changed
		}}
		got := s.researched(t, g)
		if !slices.Contains(got, chain[depth]) {
			t.Errorf("depth %d: class %d hops above the change not searched again (searched %v)", depth, depth, got)
		}
		if slices.Contains(got, chain[depth+1]) {
			t.Errorf("depth %d: class %d hops above the change searched again (searched %v)", depth, depth+1, got)
		}
	}
}

// TestRepairedParentIsLogged covers the change-log site in congruence
// repair: merging a node's two children rewrites that node in place, so a
// depth-0 rule must search its class again, e.g. for (- x y) to become
// (- x x) and match sub-self. Its parent, one hop up, stays cached.
func TestRepairedParentIsLogged(t *testing.T) {
	g := New()
	x := g.AddLeaf(expr.OpSym, 0, "x", 0)
	y := g.AddLeaf(expr.OpSym, 0, "y", 0)
	p := g.Add(ENode{Op: expr.OpSub, Args: []ClassID{x, y}})
	q := g.Add(ENode{Op: expr.OpNeg, Args: []ClassID{p}})
	s := &spyRule{depth: 0, at: x, change: func(g *EGraph) bool {
		_, changed := g.Union(x, y)
		return changed
	}}
	got := s.researched(t, g)
	if !slices.Contains(got, p) {
		t.Errorf("class of the repaired node not searched again (searched %v)", got)
	}
	if slices.Contains(got, q) {
		t.Errorf("its unchanged parent searched again (searched %v)", got)
	}
}
