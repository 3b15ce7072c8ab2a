package extract_test

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"diospyros/internal/bench"
	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/extract"
	"diospyros/internal/isa"
	"diospyros/internal/kernels"
	"diospyros/internal/rules"
)

// fullChoice is one class's choice under fullRelaxation.
type fullChoice struct {
	cost float64
	node egraph.ENode
}

// fullStats counts one fullRelaxation run.
type fullStats struct {
	passes  int // sweeps over every class, the last one changing nothing
	classes int // canonical classes each sweep visits
	priced  int // nodes priced: every node of every class in every pass
	// semiNaive counts the nodes the semi-naive rule prices in the same
	// run: every node in the first pass, and after it only nodes with a
	// child class that improved since their class was last visited.
	semiNaive int
}

// fullRelaxation is the plain Bellman relaxation, the extractor's oracle:
// every pass prices every node of every canonical class, in ascending
// class ID, and a node replaces its class's choice only when strictly
// cheaper. It returns the choices by canonical class and its counts.
func fullRelaxation(g *egraph.EGraph, model cost.Model) (map[egraph.ClassID]fullChoice, fullStats) {
	if ns, ok := model.(cost.NeedsSyms); ok {
		model = ns.WithSyms(g.SymName)
	}
	best := map[egraph.ClassID]fullChoice{}
	classes := g.CanonicalClasses()
	st := fullStats{classes: len(classes)}
	price := func(n egraph.ENode) (float64, bool) {
		st.priced++
		children := make([]cost.ChildInfo, len(n.Args))
		sum := 0.0
		for i, a := range n.Args {
			b, ok := best[g.Find(a)]
			if !ok {
				return 0, false
			}
			children[i] = cost.ChildInfo{Cost: b.cost, Node: b.node}
			sum += b.cost
		}
		total := sum + model.NodeCost(n, children)
		if math.IsInf(total, 0) || math.IsNaN(total) {
			return 0, false
		}
		return total, true
	}
	// The semi-naive clock: improved[c] is the tick of class c's last
	// improvement, visited[c] the clock when its last visit began.
	improved := map[egraph.ClassID]int{}
	visited := map[egraph.ClassID]int{}
	clock := 0
	for changed := true; changed; {
		changed = false
		st.passes++
		for _, cls := range classes {
			since := visited[cls.ID]
			visited[cls.ID] = clock
			cur, have := best[cls.ID]
			for _, ni := range cls.Nodes {
				n := g.Node(ni)
				if st.passes == 1 || slices.ContainsFunc(n.Args, func(a egraph.ClassID) bool {
					return improved[g.Find(a)] > since
				}) {
					st.semiNaive++
				}
				c, ok := price(n)
				if ok && (!have || c < cur.cost) {
					cur, have = fullChoice{c, n}, true
					best[cls.ID] = cur
					clock++
					improved[cls.ID] = clock
					changed = true
				}
			}
		}
	}
	return best, st
}

// TestSemiNaiveExtractionEqualsFullRelaxation holds the worklist
// relaxation (DESIGN.md §14.4) to fullRelaxation on every suite kernel:
// at fg3lite-4 and fg3lite-8, each saturated under its own width, and on
// the graph a multi-target compile extracts from, saturated under widths
// 4 and 8 and extracted for fg3lite-4, fg3lite-8 and scalar. Every
// canonical class gets the same (Cost, Node), the extractor prices
// exactly the nodes the semi-naive rule prices in the full sweep (on
// QRDecomp 4x4, the suite's longest relaxation, strictly fewer than the
// full relaxation), and it visits no more classes than the full sweep's
// passes × classes. Over
// the full suite the pricing totals are pinned: they move only when a
// saturated graph does (the ledger's nodes and classes columns).
func TestSemiNaiveExtractionEqualsFullRelaxation(t *testing.T) {
	suite := bench.Suite()
	if testing.Short() {
		suite = suite[:3]
	}
	cases := []struct {
		widths   []int
		targets  []string
		pricings []int // full-suite totals, one per target
	}{
		{[]int{4}, []string{"fg3lite-4"}, []int{145106}},
		{[]int{8}, []string{"fg3lite-8"}, []int{107171}},
		{[]int{4, 8}, []string{"fg3lite-4", "fg3lite-8", "scalar"}, []int{170396, 144369, 123551}},
	}
	for _, tc := range cases {
		models := make([]cost.Model, len(tc.targets))
		for i, name := range tc.targets {
			target, err := isa.LookupTarget(name)
			if err != nil {
				t.Fatal(err)
			}
			models[i] = cost.ForTarget(target)
		}
		rs := rules.Config{Widths: tc.widths}.Rules()
		priced := make([]int, len(models))
		visits := make([]int, len(models))
		sweeps := make([]int, len(models))
		for _, k := range suite {
			g := egraph.New()
			g.AddExpr(k.Lift().Spec)
			egraph.Run(g, rs, egraph.Limits{})
			for i, model := range models {
				name := tc.targets[i]
				ex := extract.New(g, model)
				want, full := fullRelaxation(g, model)
				for _, cls := range g.CanonicalClasses() {
					got, ok := ex.Best(cls.ID)
					w, wok := want[cls.ID]
					if ok != wok || ok && (got.Cost != w.cost || !reflect.DeepEqual(got.Node, w.node)) {
						t.Fatalf("%s %s widths %v: class %d: got (%v, %+v, %v), full relaxation (%v, %+v, %v)",
							k.ID, name, tc.widths, cls.ID, got.Cost, got.Node, ok, w.cost, w.node, wok)
					}
				}
				if ex.Pricings() != full.semiNaive || k.ID == "QRDecomp 4x4" && ex.Pricings() >= full.priced {
					t.Errorf("%s %s widths %v: priced %d nodes, the semi-naive full sweep %d, the full relaxation %d",
						k.ID, name, tc.widths, ex.Pricings(), full.semiNaive, full.priced)
				}
				if ex.Visits() > full.passes*full.classes {
					t.Errorf("%s %s widths %v: %d class visits, the full sweep %d",
						k.ID, name, tc.widths, ex.Visits(), full.passes*full.classes)
				}
				priced[i] += ex.Pricings()
				visits[i] += ex.Visits()
				sweeps[i] += full.passes * full.classes
			}
		}
		for i, name := range tc.targets {
			t.Logf("%s widths %v: priced %d nodes; %d class visits, the full sweep %d",
				name, tc.widths, priced[i], visits[i], sweeps[i])
			if visits[i] >= sweeps[i] {
				t.Errorf("%s widths %v: %d class visits, no fewer than the full sweep's %d",
					name, tc.widths, visits[i], sweeps[i])
			}
			if !testing.Short() && priced[i] != tc.pricings[i] {
				t.Errorf("%s widths %v: priced %d nodes over the suite, want %d",
					name, tc.widths, priced[i], tc.pricings[i])
			}
		}
	}
}

// BenchmarkExtract extracts the fg3lite-4 program from a saturated MatMul
// 8x8 graph.
func BenchmarkExtract(b *testing.B) {
	target, err := isa.LookupTarget("fg3lite-4")
	if err != nil {
		b.Fatal(err)
	}
	g := egraph.New()
	root := g.AddExpr(kernels.MatMul(8, 8, 8).Spec)
	egraph.Run(g, rules.Default(4).Rules(), egraph.Limits{})
	model := cost.ForTarget(target)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := extract.New(g, model).Cost(root); math.IsInf(c, 0) {
			b.Fatal("no finite-cost program")
		}
	}
}

// BenchmarkExtractTargets extracts the fg3lite-4, fg3lite-8 and scalar
// programs from a MatMul 8x8 graph saturated under widths 4 and 8, as a
// multi-target compile does.
func BenchmarkExtractTargets(b *testing.B) {
	var models []cost.Model
	for _, name := range []string{"fg3lite-4", "fg3lite-8", "scalar"} {
		target, err := isa.LookupTarget(name)
		if err != nil {
			b.Fatal(err)
		}
		models = append(models, cost.ForTarget(target))
	}
	g := egraph.New()
	root := g.AddExpr(kernels.MatMul(8, 8, 8).Spec)
	egraph.Run(g, rules.Config{Widths: []int{4, 8}}.Rules(), egraph.Limits{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, model := range models {
			if c := extract.New(g, model).Cost(root); math.IsInf(c, 0) {
				b.Fatal("no finite-cost program")
			}
		}
	}
}
