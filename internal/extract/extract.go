// Package extract selects the cheapest program represented by an e-graph
// under a cost model (paper §3.4). Extraction runs a Bellman-style
// relaxation to a fixpoint, which terminates because the cost model is
// strictly monotonic. The first pass prices every e-node; each later pass
// prices only the e-nodes whose children got cheaper.
package extract

import (
	"fmt"
	"math"

	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// Choice records the selected implementation of one e-class.
type Choice struct {
	Cost float64
	Node egraph.ENode
	ok   bool
}

// Extractor computes best choices for every class of a graph.
type Extractor struct {
	g     *egraph.EGraph
	model cost.Model
	// best holds each canonical class's choice, indexed by ClassID; ok is
	// false for a class without a finite-cost implementation and for every
	// non-canonical ID.
	best []Choice
	// children is nodeCost's scratch buffer, reused across every call.
	children []cost.ChildInfo
	// pricings counts the nodes run priced.
	pricings int
}

// New prepares an extractor and runs the fixpoint computation. Models that
// price by symbol payload (cost.NeedsSyms, e.g. per-function overrides)
// are bound to this graph's intern table before any node is priced.
func New(g *egraph.EGraph, model cost.Model) *Extractor {
	if ns, ok := model.(cost.NeedsSyms); ok {
		model = ns.WithSyms(g.SymName)
	}
	ex := &Extractor{g: g, model: model}
	ex.run()
	return ex
}

func (ex *Extractor) run() {
	// Relax until no class's best cost improves. Costs only decrease, and
	// each node's own cost is strictly positive, so cyclic choices can
	// never undercut acyclic ones and the loop terminates. Extraction never
	// adds or merges classes, so one snapshot serves every pass and each
	// pass visits classes in ascending canonical ID, which fixes tie-breaks.
	classes := ex.g.CanonicalClasses()
	if len(classes) == 0 {
		return
	}
	ids := int(classes[len(classes)-1].ID) + 1
	ex.best = make([]Choice, ids)
	// The relaxation is semi-naive (DESIGN.md §14.4): the clock ticks once
	// per improvement, improved[c] is the tick of class c's last one, and
	// priced[c] is the clock when a pass last began pricing c. After the
	// first pass, a node none of whose children improved since its class
	// was last priced would price as it did then, when it already lost to
	// or set the class's choice, which has only got cheaper since; it is
	// skipped. A class's own improvement counts, so a node reading its own
	// class is priced again.
	improved := make([]uint32, ids)
	priced := make([]uint32, ids)
	var clock uint32
	for first := true; ; first = false {
		changed := false
		for _, cls := range classes {
			cur := &ex.best[cls.ID]
			since := priced[cls.ID]
			priced[cls.ID] = clock
			for _, ni := range cls.Nodes {
				n := ex.g.Node(ni)
				if !first && !ex.improvedSince(n, improved, since) {
					continue
				}
				c, ok := ex.nodeCost(n)
				if !ok {
					continue
				}
				if !cur.ok || c < cur.Cost {
					*cur = Choice{Cost: c, Node: n, ok: true}
					clock++
					improved[cls.ID] = clock
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// improvedSince reports whether a child class of n improved after tick
// since.
func (ex *Extractor) improvedSince(n egraph.ENode, improved []uint32, since uint32) bool {
	for _, a := range n.Args {
		if improved[ex.g.Find(a)] > since {
			return true
		}
	}
	return false
}

// nodeCost prices node n using the current best choices of its children.
func (ex *Extractor) nodeCost(n egraph.ENode) (float64, bool) {
	ex.pricings++
	children := ex.children[:0]
	sum := 0.0
	for _, a := range n.Args {
		b := ex.choice(a)
		if b == nil {
			return 0, false
		}
		children = append(children, cost.ChildInfo{Cost: b.Cost, Node: b.Node})
		sum += b.Cost
	}
	ex.children = children
	own := ex.model.NodeCost(n, children)
	total := sum + own
	if math.IsInf(total, 0) || math.IsNaN(total) {
		return 0, false
	}
	return total, true
}

// choice returns the best choice of id's class, or nil when the class has
// no finite-cost implementation (or was not in the graph when it was
// extracted).
func (ex *Extractor) choice(id egraph.ClassID) *Choice {
	c := ex.g.Find(id)
	if int(c) >= len(ex.best) || !ex.best[c].ok {
		return nil
	}
	return &ex.best[c]
}

// Best returns the chosen implementation of a class.
func (ex *Extractor) Best(id egraph.ClassID) (Choice, bool) {
	if b := ex.choice(id); b != nil {
		return *b, true
	}
	return Choice{}, false
}

// Expr materializes the extracted term for a class as an expression tree.
// Shared subterms are shared pointers in the result (a DAG), which the
// later LVN pass exploits.
func (ex *Extractor) Expr(id egraph.ClassID) (*expr.Expr, error) {
	memo := map[egraph.ClassID]*expr.Expr{}
	var build func(egraph.ClassID) (*expr.Expr, error)
	building := map[egraph.ClassID]bool{}
	build = func(c egraph.ClassID) (*expr.Expr, error) {
		c = ex.g.Find(c)
		if e, ok := memo[c]; ok {
			return e, nil
		}
		if building[c] {
			return nil, fmt.Errorf("extract: cyclic best choice at class %d (cost model not strictly monotonic?)", c)
		}
		b := ex.choice(c)
		if b == nil {
			return nil, fmt.Errorf("extract: no finite-cost implementation for class %d", c)
		}
		building[c] = true
		defer delete(building, c)
		e := &expr.Expr{Op: b.Node.Op, Lit: b.Node.Lit, Sym: ex.g.SymName(b.Node.Sym), Idx: b.Node.Idx}
		for _, a := range b.Node.Args {
			child, err := build(a)
			if err != nil {
				return nil, err
			}
			e.Args = append(e.Args, child)
		}
		memo[c] = e
		return e, nil
	}
	return build(id)
}

// Cost returns the total extracted cost of a class, or +Inf when the class
// has no implementation under the model.
func (ex *Extractor) Cost(id egraph.ClassID) float64 {
	b, ok := ex.Best(id)
	if !ok {
		return math.Inf(1)
	}
	return b.Cost
}
