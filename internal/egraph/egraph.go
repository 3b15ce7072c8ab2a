// Package egraph implements an e-graph (equality graph) with hashconsing,
// union–find, and deferred congruence-closure rebuilding, in the style of
// egg (Willsey et al., POPL 2021), which the Diospyros paper uses as its
// equality-saturation engine.
//
// An e-graph compactly represents a large set of equivalent terms. Nodes
// (ENode) are operators applied to equivalence classes (EClass); two nodes in
// the same class represent equal terms. Rewrite rules add nodes and merge
// classes; Rebuild restores the congruence invariant (equal children imply
// equal parents) after a batch of merges.
//
// Data layout (DESIGN.md §14): symbol payloads are interned per graph
// (SymbolTable, symbols.go) so nodes carry a 32-bit SymID instead of a
// string; each node is stored once, in a node table whose children live
// in an append-only arena, and class lists, parent entries, provenance and
// the hashcons (hashcons.go) name it by NodeID (§14.6); and both halves of an
// iteration are incremental (index.go): the graph logs every class whose
// node list changes, Rebuild canonicalizes only the logged classes, and
// the match phase re-searches only the classes whose read neighbourhood
// holds a logged class, keeping every other class's matches from the last
// iteration.
package egraph

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strconv"

	"diospyros/internal/expr"
)

// ClassID identifies an equivalence class. IDs are stable but may be
// non-canonical after unions; use Find to canonicalize.
type ClassID uint32

// NodeID identifies an e-node in the graph's node table (DESIGN.md §14.6).
// A node keeps its ID for the graph's lifetime; Rebuild canonicalizes its
// children in place. Read a node with EGraph.Node.
type NodeID uint32

// ENode is an operator applied to child equivalence classes. Terminals
// (literals, symbols, Get) carry payloads and have no children. Symbol
// payloads are interned: Sym is a graph-local SymID, resolved back to its
// string with EGraph.SymName and produced with EGraph.InternSym (or the
// LeafNode/AddLeaf helpers, which intern for you).
//
// A node read from the graph shares its Args with the node table: callers
// must not write to them.
type ENode struct {
	Op   expr.Op
	Sym  SymID   // payload for OpSym, OpGet, OpFunc, OpVecFunc (interned)
	Lit  float64 // payload for expr.OpLit
	Idx  int     // payload for OpGet
	Args []ClassID
}

// Leaf reports whether the node has no children.
func (n ENode) Leaf() bool { return len(n.Args) == 0 }

// parent is a back-reference from a child class to a node naming it: the
// node's table index and the class that holds the node.
type parent struct {
	node  NodeID
	class ClassID
}

// EClass is an equivalence class of nodes.
type EClass struct {
	ID ClassID
	// Nodes indexes the class's nodes in the graph's node table; read
	// them with EGraph.Node.
	Nodes   []NodeID
	parents []parent
}

// The node store's chunk sizes. Every chunk is allocated once at its full
// capacity and never moves, so nothing is copied as the graph grows (only
// the first node page grows by append, which keeps small graphs small).
const (
	nodePage   = 256  // nodes per page of the node table
	argChunk   = 1024 // class IDs per chunk of the Args arena
	classChunk = 64   // EClass structs and first node-list slots per chunk
)

// EGraph is the main structure. The zero value is not usable; call New.
type EGraph struct {
	uf   []ClassID // union-find parent pointers
	rank []uint8
	// classes is indexed by ClassID: a canonical class's slot holds it,
	// a union loser's slot is nil. numClasses counts the non-nil slots.
	classes    []*EClass
	numClasses int
	dirty      []ClassID // classes touched by unions, pending Rebuild
	memo       hashcons  // the hashcons, hashed with seed (hashcons.go)
	seed       maphash.Seed

	// The node store (DESIGN.md §14.6). nodes is the node table in pages
	// of nodePage entries: node i is nodes[i/nodePage][i%nodePage], and
	// every node ever added stays there, including those Rebuild drops
	// from class lists as duplicates (a parent entry may still name
	// them). args is the current chunk of the append-only Args arena each
	// stored node's children are copied into; classSlab and listSlab are
	// the current chunks new classes and their first node-list slot are
	// carved from. argCount counts the arena slots handed out.
	nodes     [][]ENode
	numStored int
	args      []ClassID
	argCount  int64
	classSlab []EClass
	listSlab  []NodeID

	// changed logs every class whose node list changed since the match
	// phase last consumed the log (index.go): classes Add creates, Union
	// winners, and classes holding a node that repair re-canonicalized in
	// the node table. It is both the semi-naive search's input and
	// Rebuild's worklist: canonicalizeClasses visits only the logged
	// classes (DESIGN.md §14.3). It is not part of the footprint.
	changed []ClassID

	// Reusable scratch, not part of the footprint. A class ID was visited
	// by the current pass (a repair round, the canonicalization walk, or
	// the match phase's dirty walk) exactly when its stamp equals
	// stampGen, so no pass has to clear stamp (newPass). dirtySpare is the
	// repair rounds' second worklist buffer; seen is the table repair and
	// canonicalizeClasses dedupe nodes with.
	stampGen   uint32
	stamp      []uint32
	dirtySpare []ClassID
	seen       hashcons

	// syms interns every symbol payload the graph has seen (symbols.go).
	syms SymbolTable

	// prov, when non-nil, records rewrite provenance (see provenance.go).
	prov *provenance

	// nodeCount is the running total of e-nodes across all class lists
	// (NumNodes). The graph itself never refuses an Add; size limits are
	// enforced by the saturation runner, which polls NumNodes against
	// Limits.MaxNodes and stops the run with StopNodeLimit.
	nodeCount int

	// Footprint counters (see footprint.go). Maintained incrementally at
	// the same mutation sites as nodeCount so Footprint()/FootprintBytes()
	// stay O(1): parentCount counts parent back-reference entries across
	// all classes. Symbol-string bytes are owned by the SymbolTable and
	// accounted there.
	parentCount int
}

// New returns an empty e-graph.
func New() *EGraph {
	g := &EGraph{seed: maphash.MakeSeed()}
	g.memo.reset(0)
	return g
}

// NumClasses returns the number of canonical equivalence classes.
func (g *EGraph) NumClasses() int { return g.numClasses }

// NumNodes returns the total number of e-nodes across all classes.
func (g *EGraph) NumNodes() int { return g.nodeCount }

// Find returns the canonical representative of the class. IDs that were
// never issued by this graph are returned unchanged (and will not resolve
// to any class).
//
// Find performs no writes when the chain from id to its root has length at
// most one, which is the steady state after CompressPaths (and, for IDs
// stored inside class node lists, after Rebuild). The parallel match phase
// relies on this: after a serial CompressPaths, concurrent searchers may
// call Find freely without racing on the union-find array.
func (g *EGraph) Find(id ClassID) ClassID {
	if int(id) >= len(g.uf) {
		return id
	}
	for g.uf[id] != id {
		next := g.uf[id]
		if g.uf[next] == next {
			// Parent is the root: nothing to halve, and — critically for
			// the read-only parallel search phase — nothing to write.
			return next
		}
		g.uf[id] = g.uf[next] // path halving
		id = g.uf[next]
	}
	return id
}

// CompressPaths fully compresses the union-find so every ID points directly
// at its canonical root. After it returns, Find never mutates the structure
// until the next Union, making the e-graph safe for concurrent read-only
// searchers. The saturation runner calls it at the start of every
// iteration's match phase.
func (g *EGraph) CompressPaths() {
	for i := range g.uf {
		id := ClassID(i)
		for g.uf[id] != id {
			g.uf[id] = g.uf[g.uf[id]]
			id = g.uf[id]
		}
		g.uf[i] = id
	}
}

// Class returns the canonical class for id, or nil for an ID the graph
// never issued.
func (g *EGraph) Class(id ClassID) *EClass {
	if r := g.Find(id); int(r) < len(g.classes) {
		return g.classes[r]
	}
	return nil
}

// CanonicalClasses returns every canonical class in ascending ID order:
// one pass over the class slice, skipping the slots of union losers. It
// is the snapshot the parallel match phase shards across workers and the
// order extraction relaxes in. The slice is freshly allocated; the
// *EClass values are the live classes, so callers must not mutate them
// while other goroutines read the graph.
func (g *EGraph) CanonicalClasses() []*EClass {
	out := make([]*EClass, 0, g.numClasses)
	for _, cls := range g.classes {
		if cls != nil {
			out = append(out, cls)
		}
	}
	return out
}

// AppendParentClasses appends to dst the canonical class of every parent
// entry of id's class (a class holding a node that names id's class as a
// child) and returns the extended slice. A class appears once per entry
// naming it, so dst may repeat IDs. Nothing is appended for an ID the
// graph never issued.
func (g *EGraph) AppendParentClasses(dst []ClassID, id ClassID) []ClassID {
	cls := g.Class(id)
	if cls == nil {
		return dst
	}
	for _, p := range cls.parents {
		dst = append(dst, g.Find(p.class))
	}
	return dst
}

// Node returns the node the table holds at id. Its Args are the table's:
// callers must not write to them, and they read canonical IDs only until
// the next Union (Rebuild canonicalizes them in place).
func (g *EGraph) Node(id NodeID) ENode { return g.nodes[id/nodePage][id%nodePage] }

// canonicalize rewrites the stored node's children to canonical class IDs
// in place and reports whether any child changed. Before the first change
// it empties the hashcons slot of the node's stored contents (its own or
// a congruent twin's: either goes stale).
func (g *EGraph) canonicalize(id NodeID) bool {
	n := g.Node(id)
	moved := false
	for i, a := range n.Args {
		if r := g.Find(a); r != a {
			if !moved {
				if at, ok := g.memo.find(g, n, false); ok {
					g.memo.remove(g, at)
				}
			}
			n.Args[i] = r
			moved = true
		}
	}
	return moved
}

// store appends n to the node table, copying its children, canonicalized,
// into the Args arena, and returns its ID.
func (g *EGraph) store(n ENode) NodeID {
	// A fresh node, so the caller's Args never leak into the table.
	stored := ENode{Op: n.Op, Sym: n.Sym, Lit: n.Lit, Idx: n.Idx}
	if len(n.Args) > 0 {
		stored.Args = carve(&g.args, len(n.Args), argChunk)
		for i, a := range n.Args {
			stored.Args[i] = g.Find(a)
		}
		g.argCount += int64(len(n.Args))
	}
	if len(g.nodes) == 0 || len(g.nodes[len(g.nodes)-1]) == nodePage {
		var page []ENode
		if len(g.nodes) > 0 {
			page = make([]ENode, 0, nodePage)
		}
		g.nodes = append(g.nodes, page)
	}
	last := &g.nodes[len(g.nodes)-1]
	*last = append(*last, stored)
	id := NodeID(g.numStored)
	g.numStored++
	return id
}

// carve returns the next n elements of the chunk *buf, first replacing it
// with a fresh chunk of max(n, size) elements when fewer than n are left.
// The result's capacity is n, so appending to it copies out of the chunk.
func carve[T any](buf *[]T, n, size int) []T {
	b := *buf
	if cap(b)-len(b) < n {
		b = make([]T, 0, max(n, size))
	}
	b = b[:len(b)+n]
	*buf = b
	return b[len(b)-n : len(b) : len(b)]
}

// Lookup reports the class containing the (canonicalized) node, if any.
// The probe canonicalizes n's children as it hashes and compares them: it
// never copies or mutates n and allocates nothing at any arity.
func (g *EGraph) Lookup(n ENode) (ClassID, bool) {
	i, ok := g.memo.find(g, n, true)
	if !ok {
		return 0, false
	}
	return g.Find(g.memo.slots[i].class), true
}

// Add inserts a node, returning its class. If an equal node already exists,
// the existing class is returned and the graph is unchanged. Nodes carrying
// a symbol must use a SymID interned in this graph (InternSym/LeafNode).
//
// The graph keeps its own copy of n's children: the caller may reuse
// n.Args as soon as Add returns.
func (g *EGraph) Add(n ENode) ClassID {
	slot, ok := g.memo.find(g, n, true)
	if ok {
		return g.Find(g.memo.slots[slot].class)
	}
	ni := g.store(n)
	id := ClassID(len(g.uf))
	g.uf = append(g.uf, id)
	g.rank = append(g.rank, 0)
	cls := &carve(&g.classSlab, 1, classChunk)[0]
	*cls = EClass{ID: id, Nodes: carve(&g.listSlab, 1, classChunk)}
	cls.Nodes[0] = ni
	g.classes = append(g.classes, cls)
	g.numClasses++
	g.memo.put(g, slot, false, parent{node: ni, class: id})
	g.changed = append(g.changed, id)
	g.nodeCount++
	if g.prov != nil {
		g.prov.recordNode(ni)
	}
	// One parent entry per distinct child, in first-occurrence order; a
	// node has at most a vector width of children, so a scan beats a set.
	args := g.Node(ni).Args
	for i, child := range args {
		if slices.Contains(args[:i], child) {
			continue
		}
		cc := g.classes[child]
		cc.parents = append(cc.parents, parent{node: ni, class: id})
		g.parentCount++
	}
	return id
}

// AddLeaf inserts a terminal node for the given operator and payload,
// interning the symbol in the graph's table.
func (g *EGraph) AddLeaf(op expr.Op, lit float64, sym string, idx int) ClassID {
	return g.Add(g.LeafNode(op, lit, sym, idx))
}

// AddLit inserts a literal.
func (g *EGraph) AddLit(v float64) ClassID {
	return g.Add(ENode{Op: expr.OpLit, Lit: v})
}

// AddExpr inserts a whole expression, returning the root class. Shared
// subterm pointers (expression DAGs, as produced by symbolic evaluation of
// large kernels) are visited once.
func (g *EGraph) AddExpr(e *expr.Expr) ClassID {
	memo := make(map[*expr.Expr]ClassID)
	// args is a stack of child IDs: each node's children sit above its
	// ancestors' and are popped once Add has copied them.
	var args []ClassID
	var add func(*expr.Expr) ClassID
	add = func(e *expr.Expr) ClassID {
		if id, ok := memo[e]; ok {
			return id
		}
		base := len(args)
		for _, a := range e.Args {
			child := add(a)
			args = append(args, child)
		}
		id := g.Add(ENode{Op: e.Op, Lit: e.Lit, Sym: g.syms.Intern(e.Sym), Idx: e.Idx, Args: args[base:]})
		args = args[:base]
		memo[e] = id
		return id
	}
	return add(e)
}

// Union merges the classes of a and b, returning the canonical class of the
// merged result and whether the graph changed.
func (g *EGraph) Union(a, b ClassID) (ClassID, bool) {
	ra, rb := g.Find(a), g.Find(b)
	if ra == rb {
		return ra, false
	}
	if g.prov != nil {
		g.prov.recordUnion(ra, rb)
	}
	// Union by rank; the loser's nodes and parents move to the winner.
	if g.rank[ra] < g.rank[rb] {
		ra, rb = rb, ra
	} else if g.rank[ra] == g.rank[rb] {
		g.rank[ra]++
	}
	g.uf[rb] = ra
	win, lose := g.classes[ra], g.classes[rb]
	win.Nodes = append(win.Nodes, lose.Nodes...)
	win.parents = append(win.parents, lose.parents...)
	g.classes[rb] = nil
	g.numClasses--
	g.dirty = append(g.dirty, ra)
	g.changed = append(g.changed, ra)
	return ra, true
}

// NeedsRebuild reports whether unions have occurred since the last Rebuild.
func (g *EGraph) NeedsRebuild() bool { return len(g.dirty) > 0 }

// Rebuild restores the congruence invariant after a batch of unions,
// in the deferred style of egg: it repairs the hashcons entries of parents
// of merged classes, discovering and applying congruence-induced unions
// until a fixpoint, then canonicalizes and deduplicates the node lists of
// the classes on the change log. Its cost follows what changed since the
// last Rebuild, not the size of the graph: with nothing logged it is O(1).
func (g *EGraph) Rebuild() {
	for len(g.dirty) > 0 {
		todo := g.dirty
		g.dirty = g.dirtySpare[:0]
		stamp, gen := g.newPass()
		for _, id := range todo {
			root := g.Find(id)
			if stamp[root] != gen {
				stamp[root] = gen
				g.repair(root)
			}
		}
		g.dirtySpare = todo
	}
	g.canonicalizeClasses()
}

// newPass starts a pass over class IDs: it returns the stamp slice, grown
// to cover every issued ID, and a generation no entry carries yet. The
// slice follows the union-find's capacity, so it reallocates only when
// the union-find did.
func (g *EGraph) newPass() ([]uint32, uint32) {
	if len(g.stamp) < len(g.uf) {
		g.stamp = append(g.stamp, make([]uint32, cap(g.uf)-len(g.stamp))...)
	}
	g.stampGen++
	return g.stamp, g.stampGen
}

// repair re-canonicalizes the parents of a class a union merged, unions
// those that became congruent, and points the hashcons at the ones kept.
func (g *EGraph) repair(id ClassID) {
	cls := g.classes[g.Find(id)]
	oldParents := cls.parents
	cls.parents = nil
	g.parentCount -= len(oldParents)
	// kept reuses oldParents' array: entry k is written after old entry k
	// is read. In seen, a slot's class field is the entry's index in kept.
	kept := oldParents[:0]
	seen := &g.seen
	seen.reset(len(oldParents))
	for _, p := range oldParents {
		moved := g.canonicalize(p.node)
		if moved {
			// The entry names the node its class's list holds, so that
			// list may just have changed.
			g.changed = append(g.changed, g.Find(p.class))
		}
		slot, ok := seen.find(g, g.Node(p.node), false)
		if ok {
			// Congruence: two parents became identical.
			at := seen.slots[slot].class
			g.Union(kept[at].class, p.class)
			if g.prov != nil {
				g.prov.merge(kept[at].node, p.node, moved)
			}
			kept[at] = parent{node: p.node, class: g.Find(p.class)}
			continue
		}
		seen.put(g, slot, false, parent{node: p.node, class: ClassID(len(kept))})
		kept = append(kept, parent{node: p.node, class: g.Find(p.class)})
	}
	// The class may have been merged away by the unions above.
	cls = g.classes[g.Find(id)]
	// Emit rebuilt parents in first-occurrence order of the old parent
	// list. Parent order feeds congruence-union order, class node order and
	// extraction tie-breaks, so it only has to be deterministic, which
	// insertion order is (DESIGN.md §14.4).
	for i := range kept {
		kept[i].class = g.Find(kept[i].class)
		slot, ok := g.memo.find(g, g.Node(kept[i].node), false)
		g.memo.put(g, slot, ok, kept[i])
	}
	if cls.parents == nil {
		cls.parents = kept
	} else {
		cls.parents = append(cls.parents, kept...)
	}
	g.parentCount += len(kept)
}

// canonicalizeClasses canonicalizes the nodes of every class on the
// change log and removes duplicates from its list, keeping the node count
// exact by deltas (a dropped node stays in the node table). No other
// class can need it: a node turns stale only when one of its children
// loses a union, and then its class keeps a parent entry with the node's
// key in that child's list, which repair re-canonicalizes and logs; a
// node becomes a duplicate only through a union or a canonicalization,
// both logged too. The visited classes are already on the log, so the
// match phase still sees them. Duplicates are found by content in seen.
func (g *EGraph) canonicalizeClasses() {
	stamp, gen := g.newPass()
	for _, id := range g.changed {
		root := g.Find(id)
		if stamp[root] == gen {
			continue
		}
		stamp[root] = gen
		cls := g.classes[root]
		for _, n := range cls.Nodes {
			g.canonicalize(n)
		}
		if len(cls.Nodes) < 2 {
			continue
		}
		g.seen.reset(len(cls.Nodes))
		out := cls.Nodes[:0]
		for _, n := range cls.Nodes {
			if slot, ok := g.seen.find(g, g.Node(n), false); ok {
				g.nodeCount--
			} else {
				g.seen.put(g, slot, false, parent{node: n})
				out = append(out, n)
			}
		}
		cls.Nodes = out
	}
}

// CheckInvariants verifies hashcons and congruence invariants and the
// rebuilt state, returning a list of violations: every hashcons slot is
// reachable by probing from its node's home slot, no two slots hold equal
// nodes, and the occupied slots number Footprint().Hashcons.Entries; every
// class slot holds its own canonical class, every node's children are
// canonical, each class list node finds its class in the hashcons, no
// class holds two equal nodes, NumClasses and NumNodes equal a recount,
// and the Args arena counter equals the node table's children. It is
// O(nodes) and intended for tests; call it after Rebuild.
func (g *EGraph) CheckInvariants() []string {
	var bad []string
	nodes, payload := 0, int64(0)
	classes := 0
	for _, page := range g.nodes {
		for _, n := range page {
			payload += int64(len(n.Args))
		}
	}
	occupied := 0
	for i, s := range g.memo.slots {
		if s.node != freeSlot {
			occupied++
			// A probe stops early at an equal node, or at a free slot if
			// slot i is unreachable from its node's home.
			if at, found := g.memo.find(g, g.Node(s.node), false); at != i {
				bad = append(bad, fmt.Sprintf("hashcons slot %d: probe ends at slot %d (equal node: %v)", i, at, found))
			}
		}
	}
	if occupied != g.Footprint().Hashcons.Entries {
		bad = append(bad, fmt.Sprintf("hashcons holds %d nodes, footprint counts %d", occupied, g.Footprint().Hashcons.Entries))
	}
	// owner[i] is 1 + the class whose list named slot i's contents last.
	owner := make([]ClassID, len(g.memo.slots))
	for id, cls := range g.classes {
		if cls == nil {
			continue
		}
		classes++
		if cls.ID != ClassID(id) || g.Find(cls.ID) != cls.ID {
			bad = append(bad, fmt.Sprintf("slot %d holds class %d, not a canonical class", id, cls.ID))
		}
		for _, ni := range cls.Nodes {
			n := g.Node(ni)
			nodes++
			for _, a := range n.Args {
				if g.Find(a) != a {
					bad = append(bad, "node with non-canonical child: "+g.nodeString(n))
					break
				}
			}
			at, ok := g.memo.find(g, n, true)
			if !ok {
				bad = append(bad, "node missing from hashcons: "+g.nodeString(n))
				continue
			}
			if owner[at] == cls.ID+1 {
				bad = append(bad, "duplicate node in class: "+g.nodeString(n))
			}
			owner[at] = cls.ID + 1
			if g.Find(g.memo.slots[at].class) != cls.ID {
				bad = append(bad, "hashcons maps node to wrong class: "+g.nodeString(n))
			}
		}
	}
	if classes != g.numClasses {
		bad = append(bad, fmt.Sprintf("NumClasses %d, recount %d", g.numClasses, classes))
	}
	if nodes != g.nodeCount {
		bad = append(bad, fmt.Sprintf("NumNodes %d, recount %d", g.nodeCount, nodes))
	}
	if payload != g.argCount {
		bad = append(bad, fmt.Sprintf("Args arena counter %d, node table holds %d", g.argCount, payload))
	}
	return bad
}

func (g *EGraph) nodeString(n ENode) string {
	e := &expr.Expr{Op: n.Op, Lit: n.Lit, Sym: g.syms.Name(n.Sym), Idx: n.Idx}
	for _, a := range n.Args {
		e.Args = append(e.Args, expr.Sym("c"+strconv.Itoa(int(g.Find(a)))))
	}
	return e.String()
}
