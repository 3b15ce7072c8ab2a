package rules

import (
	"math"

	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// constFoldRule folds scalar arithmetic over literal operands, e.g.
// (+ 2 3) ⇝ 5. It skips foldings whose result is not a finite real
// (division by zero, sqrt of a negative), keeping every rewrite sound.
type constFoldRule struct{}

func (constFoldRule) Name() string { return "const-fold" }

// RootOps: folding only fires at classes containing a foldable scalar
// operator node.
func (constFoldRule) RootOps() []expr.Op {
	return []expr.Op{expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv,
		expr.OpNeg, expr.OpSqrt, expr.OpSgn}
}

// ReadDepth: folding reads the class and its operands' classes, one hop
// down.
func (constFoldRule) ReadDepth() int { return 1 }

type foldMatch struct{ value float64 }

// classLit returns a literal in the class, if any.
func classLit(g *egraph.EGraph, id egraph.ClassID) (float64, bool) {
	cls := g.Class(id)
	if cls == nil {
		return 0, false
	}
	for _, ni := range cls.Nodes {
		if n := g.Node(ni); n.Op == expr.OpLit {
			return n.Lit, true
		}
	}
	return 0, false
}

func (constFoldRule) SearchClasses(g *egraph.EGraph, classes []*egraph.EClass) []egraph.Match {
	var out []egraph.Match
	for _, cls := range classes {
		// One folding per class is enough: all its nodes are equal, so a
		// class that already holds a literal needs no further folding.
		if _, already := classLit(g, cls.ID); already {
			continue
		}
		for _, n := range cls.Nodes {
			v, ok := foldNode(g, g.Node(n))
			if !ok {
				continue
			}
			out = append(out, egraph.Match{Class: cls.ID, Data: foldMatch{value: v}})
			break
		}
	}
	return out
}

func foldNode(g *egraph.EGraph, n egraph.ENode) (float64, bool) {
	var buf [2]float64
	vals := buf[:0]
	for _, a := range n.Args {
		v, ok := classLit(g, a)
		if !ok {
			return 0, false
		}
		vals = append(vals, v)
	}
	var v float64
	switch n.Op {
	case expr.OpAdd:
		v = vals[0] + vals[1]
	case expr.OpSub:
		v = vals[0] - vals[1]
	case expr.OpMul:
		v = vals[0] * vals[1]
	case expr.OpDiv:
		if vals[1] == 0 {
			return 0, false
		}
		v = vals[0] / vals[1]
	case expr.OpNeg:
		v = -vals[0]
	case expr.OpSqrt:
		if vals[0] < 0 {
			return 0, false
		}
		v = math.Sqrt(vals[0])
	case expr.OpSgn:
		v = expr.Sign(vals[0])
	default:
		return 0, false
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return v, true
}

func (constFoldRule) Apply(g *egraph.EGraph, m egraph.Match) bool {
	fm := m.Data.(foldMatch)
	id := g.AddLit(fm.value)
	_, changed := g.Union(m.Class, id)
	return changed
}
