package extract

import (
	"math"
	"strings"
	"testing"

	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// unitCost charges 1 per node, ignoring structure.
type unitCost struct{}

func (unitCost) NodeCost(egraph.ENode, []cost.ChildInfo) float64 { return 1 }

func TestExtractPicksSmallerEquivalent(t *testing.T) {
	g := egraph.New()
	big := g.AddExpr(expr.MustParse("(+ (+ x 0) 0)"))
	small := g.AddExpr(expr.Sym("x"))
	g.Union(big, small)
	g.Rebuild()
	ex := New(g, unitCost{})
	out, err := ex.Expr(big)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "x" {
		t.Fatalf("extracted %s, want x", out)
	}
	if c := ex.Cost(big); c != 1 {
		t.Fatalf("cost = %g, want 1", c)
	}
}

func TestExtractHandlesCyclicClasses(t *testing.T) {
	// Union x with (+ x 0): the class is cyclic but extraction must
	// terminate and pick the leaf.
	g := egraph.New()
	x := g.AddExpr(expr.Sym("x"))
	plus := g.AddExpr(expr.MustParse("(+ x 0)"))
	g.Union(x, plus)
	g.Rebuild()
	ex := New(g, unitCost{})
	out, err := ex.Expr(plus)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "x" {
		t.Fatalf("extracted %s, want x", out)
	}
}

func TestExtractSharedSubterms(t *testing.T) {
	// (+ (* a b) (* a b)): both children must extract to the same pointer.
	g := egraph.New()
	root := g.AddExpr(expr.MustParse("(+ (* a b) (* a b))"))
	ex := New(g, unitCost{})
	out, err := ex.Expr(root)
	if err != nil {
		t.Fatal(err)
	}
	if out.Args[0] != out.Args[1] {
		t.Fatal("shared subterm not shared in extracted DAG")
	}
}

func TestExtractRespectsForbidden(t *testing.T) {
	// ScalarOnly makes vector nodes effectively unusable; when a scalar
	// alternative exists in the class it must win.
	g := egraph.New()
	vecForm := g.AddExpr(expr.MustParse("(VecAdd (Vec (Get a 0) (Get a 1)) (Vec (Get b 0) (Get b 1)))"))
	scalarForm := g.AddExpr(expr.MustParse("(Vec (+ (Get a 0) (Get b 0)) (+ (Get a 1) (Get b 1)))"))
	g.Union(vecForm, scalarForm)
	g.Rebuild()
	ex := New(g, cost.ScalarOnly{})
	out, err := ex.Expr(vecForm)
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != expr.OpVec {
		t.Fatalf("got %s, want the Vec-of-scalars form", out)
	}
	if strings.Contains(out.String(), "VecAdd") {
		t.Fatal("forbidden VecAdd extracted")
	}
}

func TestCostOfMissingClass(t *testing.T) {
	g := egraph.New()
	id := g.AddExpr(expr.Sym("x"))
	ex := New(g, unitCost{})
	if c := ex.Cost(id); c != 1 {
		t.Fatalf("cost = %g", c)
	}
	if !math.IsInf(ex.Cost(egraph.ClassID(999)), 1) {
		t.Fatal("missing class should cost +Inf")
	}
}

func TestClassifyVec(t *testing.T) {
	syms := map[string]egraph.SymID{}
	get := func(arr string, i int) cost.ChildInfo {
		id, ok := syms[arr]
		if !ok {
			id = egraph.SymID(len(syms) + 1)
			syms[arr] = id
		}
		return cost.ChildInfo{Node: egraph.ENode{Op: expr.OpGet, Sym: id, Idx: i}}
	}
	lit := func(v float64) cost.ChildInfo {
		return cost.ChildInfo{Node: egraph.ENode{Op: expr.OpLit, Lit: v}}
	}
	op := func() cost.ChildInfo {
		return cost.ChildInfo{Node: egraph.ENode{Op: expr.OpAdd}}
	}
	cases := []struct {
		children []cost.ChildInfo
		want     cost.MovementClass
	}{
		{[]cost.ChildInfo{lit(0), lit(1), lit(2), lit(3)}, cost.MoveLiteral},
		{[]cost.ChildInfo{get("a", 0), get("a", 1), get("a", 2), get("a", 3)}, cost.MoveContiguous},
		{[]cost.ChildInfo{get("a", 4), get("a", 5), get("a", 6), get("a", 7)}, cost.MoveContiguous},
		// Unaligned run is not a plain vector load.
		{[]cost.ChildInfo{get("a", 1), get("a", 2), get("a", 3), get("a", 4)}, cost.MoveSingleArray},
		{[]cost.ChildInfo{get("a", 3), get("a", 0), get("a", 5), get("a", 1)}, cost.MoveSingleArray},
		{[]cost.ChildInfo{get("a", 0), lit(0), get("a", 5), lit(0)}, cost.MoveSingleArray},
		{[]cost.ChildInfo{get("a", 0), get("b", 0), get("a", 1), get("b", 1)}, cost.MoveTwoArrays},
		{[]cost.ChildInfo{get("a", 0), get("b", 0), get("c", 0), get("a", 1)}, cost.MoveManyArrays},
		{[]cost.ChildInfo{get("a", 0), op(), get("a", 2), get("a", 3)}, cost.MoveScalarLanes},
	}
	for i, c := range cases {
		got, _ := cost.ClassifyVec(c.children)
		if got != c.want {
			t.Errorf("case %d: ClassifyVec = %v, want %v", i, got, c.want)
		}
	}
}

func TestMovementCostOrdering(t *testing.T) {
	// The §3.4 ordering: literal < contiguous < single-array shuffle <
	// two-array select < many-array < scalar lanes.
	mk := func(children []cost.ChildInfo) float64 {
		n := egraph.ENode{Op: expr.OpVec, Args: make([]egraph.ClassID, len(children))}
		return cost.Diospyros{Width: 4}.NodeCost(n, children)
	}
	syms := map[string]egraph.SymID{}
	get := func(arr string, i int) cost.ChildInfo {
		id, ok := syms[arr]
		if !ok {
			id = egraph.SymID(len(syms) + 1)
			syms[arr] = id
		}
		return cost.ChildInfo{Node: egraph.ENode{Op: expr.OpGet, Sym: id, Idx: i}}
	}
	lit := cost.ChildInfo{Node: egraph.ENode{Op: expr.OpLit}}
	opc := cost.ChildInfo{Node: egraph.ENode{Op: expr.OpMul}}
	seq := []float64{
		mk([]cost.ChildInfo{lit, lit, lit, lit}),
		mk([]cost.ChildInfo{get("a", 0), get("a", 1), get("a", 2), get("a", 3)}),
		mk([]cost.ChildInfo{get("a", 3), get("a", 1), get("a", 0), get("a", 2)}),
		mk([]cost.ChildInfo{get("a", 0), get("b", 1), get("a", 2), get("b", 3)}),
		mk([]cost.ChildInfo{get("a", 0), get("b", 1), get("c", 2), get("d", 3)}),
		mk([]cost.ChildInfo{get("a", 0), opc, get("a", 2), get("a", 3)}),
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] <= seq[i-1] {
			t.Fatalf("cost ordering violated at %d: %v", i, seq)
		}
	}
}
