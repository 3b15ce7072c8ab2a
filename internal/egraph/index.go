package egraph

import (
	"sort"

	"diospyros/internal/expr"
)

// Indexed rule dispatch (DESIGN.md §14). Before the data-layout overhaul,
// every iteration's match phase scanned every canonical class once per
// rule. Most rules can only match at classes containing a node with a
// specific head operator — a pattern rooted at (+ ...) is unmatchable in a
// class holding only Vec and Get nodes — so the runner now builds a head-op
// index over the canonical class list once per iteration and hands each
// rule only its candidate classes.
//
// Determinism: per-operator class lists are built by one pass over the
// canonical (ID-sorted) class list, so every candidate list is itself in
// canonical ID order, and a class pruned for a rule is exactly one where
// that rule's search yields zero matches. Each rule's match list is
// therefore element-for-element identical to the full scan's, and the
// apply phase — and every artifact downstream of it — is unchanged (the
// completeness test in internal/rules pins this across the kernel suite).

// HeadIndexed is implemented by rewrites that declare the head operators
// their matches can root at: the rule's search, restricted to any class
// list, returns no match for a class containing no node with one of these
// operators. The runner uses the declaration to pre-filter each rule's
// class scan through the per-iteration head-op index. A nil RootOps means
// the rule must scan every class (the conservative default for rewrites
// that do not implement the interface).
type HeadIndexed interface {
	Rewrite
	// RootOps returns the operator heads the rewrite's root can match
	// under, or nil when any class is a candidate.
	RootOps() []expr.Op
}

// RootOps implements HeadIndexed for syntactic rules: a pattern rooted at a
// variable matches anywhere; any other pattern only matches classes holding
// its root operator.
func (r *patternRewrite) RootOps() []expr.Op {
	if r.lhs.Var != "" {
		return nil
	}
	return []expr.Op{r.lhs.Op}
}

// ClassIndex is one iteration's head-op index: the full canonical class
// list plus, per operator, the ID-ordered sublist of classes containing at
// least one node with that head.
type ClassIndex struct {
	classes []*EClass
	byOp    [expr.NumOps][]*EClass
}

// HeadIndex builds the head-op index over a canonical class snapshot (as
// returned by CanonicalClasses). One O(nodes) pass; the runner rebuilds it
// every iteration because rebuilds move nodes between classes.
func HeadIndex(classes []*EClass) *ClassIndex {
	ix := &ClassIndex{classes: classes}
	for _, cls := range classes {
		var mask uint64 // distinct heads in this class (NumOps < 64)
		for _, n := range cls.Nodes {
			mask |= 1 << uint(n.Op)
		}
		for op := expr.Op(0); mask != 0; op++ {
			if mask&(1<<uint(op)) != 0 {
				mask &^= 1 << uint(op)
				ix.byOp[op] = append(ix.byOp[op], cls)
			}
		}
	}
	return ix
}

// Candidates returns the classes the rewrite's search must scan, in
// canonical ID order: the per-op sublists for a HeadIndexed rule, the full
// class list otherwise.
func (ix *ClassIndex) Candidates(r Rewrite) []*EClass {
	hi, ok := r.(HeadIndexed)
	if !ok {
		return ix.classes
	}
	ops := hi.RootOps()
	switch len(ops) {
	case 0:
		return ix.classes
	case 1:
		return ix.byOp[ops[0]]
	}
	// A class holding nodes of several root heads appears in several
	// sublists; merge and deduplicate by ID to restore the canonical order.
	total := 0
	for _, op := range ops {
		total += len(ix.byOp[op])
	}
	merged := make([]*EClass, 0, total)
	for _, op := range ops {
		merged = append(merged, ix.byOp[op]...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	out := merged[:0]
	for i, cls := range merged {
		if i == 0 || cls.ID != merged[i-1].ID {
			out = append(out, cls)
		}
	}
	return out
}
