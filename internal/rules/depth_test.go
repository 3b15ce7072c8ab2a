package rules

import (
	"testing"

	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// triggerRule matches at one class every iteration; its applier makes one
// change to the graph (later applies change nothing).
type triggerRule struct {
	at     egraph.ClassID
	change func(g *egraph.EGraph) bool
}

func (triggerRule) Name() string       { return "trigger" }
func (triggerRule) RootOps() []expr.Op { return nil }
func (triggerRule) ReadDepth() int     { return 0 }

func (r triggerRule) SearchClasses(g *egraph.EGraph, classes []*egraph.EClass, _ []egraph.Match) ([]egraph.Match, egraph.Bitset) {
	var out []egraph.Match
	for _, cls := range classes {
		if cls.ID == g.Find(r.at) {
			out = append(out, egraph.Match{Class: cls.ID})
		}
	}
	return out, nil
}

func (r triggerRule) Apply(g *egraph.EGraph, _ egraph.Match) bool { return r.change(g) }

// TestReadDepthReachesTheChange holds each custom rule to its declared
// ReadDepth from below: the rule first finds nothing, then the first
// iteration's trigger changes a class exactly ReadDepth hops below the
// class where the rule can now match, and the second iteration must find
// that match. A rule declaring too shallow a depth keeps its empty cached
// list there and fails.
func TestReadDepthReachesTheChange(t *testing.T) {
	cfg := Default(4)
	sym := func(g *egraph.EGraph, name string) egraph.ClassID {
		return g.AddLeaf(expr.OpSym, 0, name, 0)
	}
	node := func(g *egraph.EGraph, op expr.Op, args ...egraph.ClassID) egraph.ClassID {
		return g.Add(egraph.ENode{Op: op, Args: args})
	}
	// union returns a trigger change merging class a with the class build
	// adds.
	union := func(a egraph.ClassID, build func(g *egraph.EGraph) egraph.ClassID) func(*egraph.EGraph) bool {
		return func(g *egraph.EGraph) bool {
			_, changed := g.Union(a, build(g))
			return changed
		}
	}
	for _, tc := range []struct {
		rule egraph.Rewrite
		// setup builds the graph and returns the class to change.
		setup  func(g *egraph.EGraph) egraph.ClassID
		change func(g *egraph.EGraph, at egraph.ClassID) bool
	}{
		{
			// A class gains a List node: the chunk matches at that class.
			rule:  chunkRule{width: 4},
			setup: func(g *egraph.EGraph) egraph.ClassID { return sym(g, "s") },
			change: func(g *egraph.EGraph, at egraph.ClassID) bool {
				return union(at, func(g *egraph.EGraph) egraph.ClassID {
					return node(g, expr.OpList, sym(g, "a"), sym(g, "b"))
				})(g)
			},
		},
		{
			// (Vec s (+ a b) (+ a b) (+ a b)), and lane s gains a + node.
			rule: newVectorizeRule(cfg),
			setup: func(g *egraph.EGraph) egraph.ClassID {
				s := sym(g, "s")
				sum := node(g, expr.OpAdd, sym(g, "a"), sym(g, "b"))
				node(g, expr.OpVec, s, sum, sum, sum)
				return s
			},
			change: func(g *egraph.EGraph, at egraph.ClassID) bool {
				return union(at, func(g *egraph.EGraph) egraph.ClassID {
					return node(g, expr.OpAdd, sym(g, "c"), sym(g, "d"))
				})(g)
			},
		},
		{
			// (Vec (+ a p) (+ a (* b c)) ...), and p gains a * node: the
			// MAC searcher reads it two hops below the Vec.
			rule: newMACRule(cfg),
			setup: func(g *egraph.EGraph) egraph.ClassID {
				a, p := sym(g, "a"), sym(g, "p")
				mac := node(g, expr.OpAdd, a, node(g, expr.OpMul, sym(g, "b"), sym(g, "c")))
				node(g, expr.OpVec, node(g, expr.OpAdd, a, p), mac, mac, mac)
				return p
			},
			change: func(g *egraph.EGraph, at egraph.ClassID) bool {
				return union(at, func(g *egraph.EGraph) egraph.ClassID {
					return node(g, expr.OpMul, sym(g, "d"), sym(g, "e"))
				})(g)
			},
		},
	} {
		name := tc.rule.Name()
		g := egraph.New()
		at := tc.setup(g)
		trig := triggerRule{at: at, change: func(g *egraph.EGraph) bool { return tc.change(g, at) }}
		rep := egraph.Run(g, []egraph.Rewrite{tc.rule, trig}, egraph.Limits{MaxIterations: 2})
		if len(rep.Iters) != 2 {
			t.Fatalf("%s: %d iterations, want 2", name, len(rep.Iters))
		}
		matches := func(it int) int {
			for _, step := range rep.Iters[it].Rules {
				if step.Rule == name {
					return step.Matches
				}
			}
			return 0
		}
		if n := matches(0); n != 0 {
			t.Errorf("%s: %d matches before the change, want 0", name, n)
		}
		if matches(1) == 0 {
			t.Errorf("%s: no match after a change %d hops down", name, tc.rule.ReadDepth())
		}
	}
}
