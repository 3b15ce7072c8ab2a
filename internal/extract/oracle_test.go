package extract_test

import (
	"math"
	"reflect"
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

// fullRelaxation is the plain Bellman relaxation, the semi-naive
// extractor's oracle: every pass prices every node of every canonical
// class, in ascending class ID, and a node replaces its class's choice
// only when strictly cheaper. It returns the choices by canonical class
// and how many nodes it priced.
func fullRelaxation(g *egraph.EGraph, model cost.Model) (map[egraph.ClassID]fullChoice, int) {
	if ns, ok := model.(cost.NeedsSyms); ok {
		model = ns.WithSyms(g.SymName)
	}
	best := map[egraph.ClassID]fullChoice{}
	priced := 0
	price := func(n egraph.ENode) (float64, bool) {
		priced++
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
	classes := g.CanonicalClasses()
	for changed := true; changed; {
		changed = false
		for _, cls := range classes {
			cur, have := best[cls.ID]
			for _, ni := range cls.Nodes {
				n := g.Node(ni)
				c, ok := price(n)
				if ok && (!have || c < cur.cost) {
					cur, have = fullChoice{c, n}, true
					best[cls.ID] = cur
					changed = true
				}
			}
		}
	}
	return best, priced
}

// TestSemiNaiveExtractionEqualsFullRelaxation holds the semi-naive
// relaxation (DESIGN.md §14.4) to fullRelaxation on every suite kernel at
// fg3lite-4 and fg3lite-8, each saturated under its own width: every
// canonical class gets the same (Cost, Node), and no kernel prices more
// nodes than the full relaxation. QRDecomp 4x4, the suite's longest
// relaxation, must price strictly fewer.
func TestSemiNaiveExtractionEqualsFullRelaxation(t *testing.T) {
	suite := bench.Suite()
	if testing.Short() {
		suite = suite[:3]
	}
	for _, name := range []string{"fg3lite-4", "fg3lite-8"} {
		target, err := isa.LookupTarget(name)
		if err != nil {
			t.Fatal(err)
		}
		model := cost.ForTarget(target)
		rs := rules.Default(target.Width).Rules()
		var total, fullTotal int
		for _, k := range suite {
			g := egraph.New()
			g.AddExpr(k.Lift().Spec)
			egraph.Run(g, rs, egraph.Limits{})
			ex := extract.New(g, model)
			want, fullPriced := fullRelaxation(g, model)
			for _, cls := range g.CanonicalClasses() {
				got, ok := ex.Best(cls.ID)
				w, wok := want[cls.ID]
				if ok != wok || ok && (got.Cost != w.cost || !reflect.DeepEqual(got.Node, w.node)) {
					t.Fatalf("%s %s: class %d: got (%v, %+v, %v), full relaxation (%v, %+v, %v)",
						k.ID, name, cls.ID, got.Cost, got.Node, ok, w.cost, w.node, wok)
				}
			}
			priced := ex.Pricings()
			if priced > fullPriced || k.ID == "QRDecomp 4x4" && priced >= fullPriced {
				t.Errorf("%s %s: priced %d nodes, full relaxation %d", k.ID, name, priced, fullPriced)
			}
			total += priced
			fullTotal += fullPriced
		}
		t.Logf("%s: priced %d nodes, full relaxation %d", name, total, fullTotal)
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
