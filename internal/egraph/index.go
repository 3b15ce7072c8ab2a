package egraph

import (
	"cmp"
	"slices"

	"diospyros/internal/expr"
)

// Semi-naive dispatch (DESIGN.md §14.3). A rule's matches at a class depend
// only on the node lists of the classes its search reads: the class itself
// and the classes up to ReadDepth child hops below it. The graph logs every
// class whose node list changes (EGraph.changed). Each iteration's index
// step walks up the parent lists from the logged classes and records how
// many hops above a change every reached class sits; a rule re-searches
// only the reached classes within its own depth whose heads it can root
// at, and every other class keeps the rule's matches from the last
// iteration (parallel.go merges the two).
//
// Soundness: a canonical class that is not reached has the same node list
// as at the last search, and so does every class within the rule's depth
// below it; each of those lists still names only canonical classes,
// because a class with a stale node is always on the log and Rebuild
// canonicalized it (canonicalizeClasses). The rule's search there would
// therefore return exactly the cached matches, in the same order.

// The head-op masks are uint64 bitsets indexed by operator.
const _ uint = 64 - uint(expr.NumOps)

// patternDepth is how many child hops below the matched class a search of
// p reads node lists: a variable reads nothing (it binds the class ID its
// parent's node names), and an operator reads its own class's list plus
// its non-variable arguments' lists one hop further down. So (+ ?a 0) is 1,
// (- ?a ?a) is 0 and (neg (neg ?a)) is 1.
func patternDepth(p *Pattern) int {
	d := 0
	for _, a := range p.Args {
		if a.Var == "" {
			d = max(d, 1+patternDepth(a))
		}
	}
	return d
}

// rootMask is a rule's RootOps as a head-op bitset; all ones when any
// class is a candidate.
func rootMask(ops []expr.Op) uint64 {
	if len(ops) == 0 {
		return ^uint64(0)
	}
	var m uint64
	for _, op := range ops {
		m |= 1 << uint(op)
	}
	return m
}

// opMask is the set of head operators among the class's nodes.
func opMask(g *EGraph, cls *EClass) uint64 {
	var m uint64
	for _, n := range cls.Nodes {
		m |= 1 << uint(g.Node(n).Op)
	}
	return m
}

// reachedClass is one class the dirty walk reached: its distance in parent
// hops above the nearest logged class, and its head-op mask.
type reachedClass struct {
	cls  *EClass
	dist int
	ops  uint64
}

// dirtyWalk is the index step's reusable state. The walk is one of the
// graph's stamped passes (EGraph.newPass): a class was reached by it
// exactly when its stamp equals the graph's stampGen. The stamps stay
// valid through the match phase, since the next pass is the following
// Rebuild. dist is a dense per-ClassID slice read only where the stamp
// matches, so no walk has to clear it.
type dirtyWalk struct {
	dist    []int32
	reached []reachedClass // the current walk's classes, sorted by ID
}

// walk consumes g's change log: it reaches every canonical class within
// depth parent hops above a logged class, breadth first so each class gets
// its shortest distance, and leaves them in w.reached in ID order. The
// caller has compressed paths, so Find does not write.
func (w *dirtyWalk) walk(g *EGraph, depth int) {
	stamp, gen := g.newPass()
	if n := len(stamp); len(w.dist) < n {
		w.dist = append(w.dist, make([]int32, n-len(w.dist))...)
	}
	w.reached = w.reached[:0]
	reach := func(id ClassID, d int) {
		if stamp[id] == gen {
			return
		}
		stamp[id], w.dist[id] = gen, int32(d)
		w.reached = append(w.reached, reachedClass{cls: g.classes[id], dist: d})
	}
	for _, id := range g.changed {
		reach(g.Find(id), 0)
	}
	g.changed = g.changed[:0]
	for i := 0; i < len(w.reached); i++ {
		rc := w.reached[i]
		if rc.dist >= depth {
			continue
		}
		for _, p := range rc.cls.parents {
			reach(g.Find(p.class), rc.dist+1)
		}
	}
	for i := range w.reached {
		w.reached[i].ops = opMask(g, w.reached[i].cls)
	}
	slices.SortFunc(w.reached, func(a, b reachedClass) int { return cmp.Compare(a.cls.ID, b.cls.ID) })
}

// within reports whether g's current walk reached class id at most depth
// hops above a change: a rule of that read depth must search it again.
func (w *dirtyWalk) within(g *EGraph, id ClassID, depth int) bool {
	return int(id) < len(g.stamp) && g.stamp[id] == g.stampGen && int(w.dist[id]) <= depth
}
