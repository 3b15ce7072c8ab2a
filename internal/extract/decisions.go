// Extraction decision traces (the flight recorder's extract layer): for
// every e-class reachable from the chosen program, which node won, what it
// cost, and how close the runner-up came — plus the data-movement census
// (shuffle vs. select vs. gather, the paper's §4 cost distinction) of the
// chosen Vec nodes. Computed on demand after the fixpoint, so extraction
// itself pays nothing.
package extract

import (
	"fmt"
	"sort"

	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// Decision explains extraction's choice for one e-class: the winning node,
// its cost split into own vs. subtree cost, and the cheapest alternative
// the class offered.
type Decision struct {
	// Class is the canonical e-class ID.
	Class egraph.ClassID `json:"class"`
	// Winner renders the chosen node (head symbol plus payload/arity).
	Winner string `json:"winner"`
	// WinnerCost is the winner's total (subtree) cost.
	WinnerCost float64 `json:"winner_cost"`
	// WinnerOwn is the winner's own cost, excluding children — the part the
	// cost model attributes to this node (movement class, op latency).
	WinnerOwn float64 `json:"winner_own"`
	// RunnerUp renders the second-cheapest node; empty when the class
	// offered no finite-cost alternative.
	RunnerUp string `json:"runner_up,omitempty"`
	// RunnerUpCost is the runner-up's total cost (0 when uncontested).
	RunnerUpCost float64 `json:"runner_up_cost,omitempty"`
	// Margin is RunnerUpCost - WinnerCost: how decisively the winner won.
	Margin float64 `json:"margin,omitempty"`
	// Candidates counts the class's finite-cost implementations.
	Candidates int `json:"candidates"`
}

// Contested reports whether the class offered a real alternative.
func (d Decision) Contested() bool { return d.Candidates > 1 }

// MovementCounts is the data-movement census of the chosen program's Vec
// nodes, by movement class (cost.ClassifyVec). Shuffles (one-register
// permutes) against Selects+Gathers (two or more source registers) is the
// §4 distinction that decides whether vectorization pays off.
type MovementCounts struct {
	Literal     int `json:"literal,omitempty"`      // constant vectors
	Contiguous  int `json:"contiguous,omitempty"`   // aligned loads
	Shuffles    int `json:"shuffles,omitempty"`     // one-array gathers (single-register shuffle)
	Selects     int `json:"selects,omitempty"`      // two-array gathers (two-register select)
	Gathers     int `json:"gathers,omitempty"`      // three-plus-array gathers (nested selects)
	ScalarLanes int `json:"scalar_lanes,omitempty"` // lanes needing scalar inserts
}

// Decisions explains extraction's choice for every class reachable from
// root through the chosen program. Contested classes come first, closest
// margin first (the decisions worth a human's attention), then uncontested
// classes by class ID.
func (ex *Extractor) Decisions(root egraph.ClassID) []Decision {
	var out []Decision
	for _, c := range ex.reachable(root) {
		cls := ex.g.Class(c)
		if cls == nil {
			continue
		}
		best, ok := ex.Best(c)
		if !ok {
			continue
		}
		d := Decision{Class: c, Winner: ex.describeNode(best.Node), WinnerCost: best.Cost}
		if _, own, ok := ex.price(best.Node); ok {
			d.WinnerOwn = own
		}
		runnerCost, runnerNode, haveRunner := 0.0, egraph.ENode{}, false
		for _, ni := range cls.Nodes {
			n := ex.g.Node(ni)
			total, _, ok := ex.price(n)
			if !ok {
				continue
			}
			d.Candidates++
			if ex.sameNode(n, best.Node) {
				continue
			}
			if !haveRunner || total < runnerCost {
				runnerCost, runnerNode, haveRunner = total, n, true
			}
		}
		if haveRunner {
			d.RunnerUp = ex.describeNode(runnerNode)
			d.RunnerUpCost = runnerCost
			d.Margin = runnerCost - best.Cost
		}
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool {
		ci, cj := out[i].Contested(), out[j].Contested()
		if ci != cj {
			return ci
		}
		if ci && out[i].Margin != out[j].Margin {
			return out[i].Margin < out[j].Margin
		}
		return out[i].Class < out[j].Class
	})
	return out
}

// Movement runs the data-movement census over the chosen program.
func (ex *Extractor) Movement(root egraph.ClassID) MovementCounts {
	var mc MovementCounts
	for _, c := range ex.reachable(root) {
		b, ok := ex.Best(c)
		if !ok || b.Node.Op != expr.OpVec {
			continue
		}
		if _, ok := ex.childInfo(b.Node); !ok {
			continue
		}
		class, scalarLanes := cost.ClassifyVec(ex.children)
		switch class {
		case cost.MoveLiteral:
			mc.Literal++
		case cost.MoveContiguous:
			mc.Contiguous++
		case cost.MoveSingleArray:
			mc.Shuffles++
		case cost.MoveTwoArrays:
			mc.Selects++
		case cost.MoveManyArrays:
			mc.Gathers++
		case cost.MoveScalarLanes:
			mc.Gathers++
			mc.ScalarLanes += scalarLanes
		}
	}
	return mc
}

// reachable returns the canonical classes reachable from root through the
// chosen nodes, in deterministic (BFS) order.
func (ex *Extractor) reachable(root egraph.ClassID) []egraph.ClassID {
	root = ex.g.Find(root)
	seen := map[egraph.ClassID]bool{root: true}
	order := []egraph.ClassID{root}
	for i := 0; i < len(order); i++ {
		b, ok := ex.Best(order[i])
		if !ok {
			continue
		}
		for _, a := range b.Node.Args {
			a = ex.g.Find(a)
			if !seen[a] {
				seen[a] = true
				order = append(order, a)
			}
		}
	}
	return order
}

// sameNode compares nodes structurally under the current union-find.
func (ex *Extractor) sameNode(a, b egraph.ENode) bool {
	if a.Op != b.Op || a.Lit != b.Lit || a.Sym != b.Sym || a.Idx != b.Idx ||
		len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if ex.g.Find(a.Args[i]) != ex.g.Find(b.Args[i]) {
			return false
		}
	}
	return true
}

// describeNode renders a node for the decision trace: literals and symbols
// by value (resolved through the graph's intern table), Gets with their
// source, operators with their arity.
func (ex *Extractor) describeNode(n egraph.ENode) string {
	switch n.Op {
	case expr.OpLit:
		return fmt.Sprintf("%g", n.Lit)
	case expr.OpSym:
		return ex.g.SymName(n.Sym)
	case expr.OpGet:
		return fmt.Sprintf("(Get %s %d)", ex.g.SymName(n.Sym), n.Idx)
	}
	if len(n.Args) == 0 {
		return n.Op.String()
	}
	return fmt.Sprintf("(%s /%d)", n.Op.String(), len(n.Args))
}
