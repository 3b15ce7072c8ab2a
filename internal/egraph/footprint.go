package egraph

import "unsafe"

// Footprint accounting (DESIGN.md §13.1). The e-graph keeps two
// incremental counters, Args arena slots and parent-list entries, updated
// where nodeCount is, so Footprint() is O(1) arithmetic over them and
// container lengths (the symbol table keeps its own string-byte counter).
// The result is logical bytes: struct sizes from the compiler
// (unsafe.Sizeof constants), variable payloads from their lengths. Map
// buckets, hash-table free slots, and chunk and allocator slack are
// excluded, so logical bytes are a deterministic lower bound, identical
// across runs and worker counts; allocator truth comes from the compile
// recorder's memory probe and pprof profiles. Per component:
//
//   - nodes: one ENode per node-table entry (it stays when Rebuild drops
//     the node from its class list), one ClassID per Args arena slot, and
//     one NodeID per class-list entry. Symbols are inline SymIDs.
//   - hashcons: one {NodeID, ClassID} slot (parentSize) per entry, at
//     every arity (DESIGN.md §14.2).
//   - symbols: each interned string's contents once, plus its slice and
//     map entries.
//   - classes: one pointer per issued ClassID, the nil slots of union
//     losers included, plus one EClass per live class.
//   - parents: parentSize per back-reference.
//   - provenance: nodeIDSize + justSize per justified node, unionStepSize
//     per union step.
const (
	enodeSize     = int64(unsafe.Sizeof(ENode{}))
	nodeIDSize    = int64(unsafe.Sizeof(NodeID(0)))
	parentSize    = int64(unsafe.Sizeof(parent{}))
	eclassSize    = int64(unsafe.Sizeof(EClass{}))
	classIDSize   = int64(unsafe.Sizeof(ClassID(0)))
	classPtrSize  = int64(unsafe.Sizeof((*EClass)(nil)))
	rankSize      = int64(unsafe.Sizeof(uint8(0)))
	strHeaderSize = int64(unsafe.Sizeof(""))
	symIDSize     = int64(unsafe.Sizeof(SymID(0)))
	justSize      = int64(unsafe.Sizeof(Justification{}))
	unionStepSize = int64(unsafe.Sizeof(UnionStep{}))
)

// FootprintComponent is one component's share of the e-graph footprint:
// how many entries it holds and the logical bytes they occupy.
type FootprintComponent struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Footprint is a per-component breakdown of the e-graph's logical memory:
// e-node structs and payloads, the hashcons (occupied node-ID slots),
// the symbol intern table, the union-find arrays, the per-class containers,
// parent back-references, and the provenance store. Total is the sum of all
// component bytes.
type Footprint struct {
	Nodes      FootprintComponent `json:"nodes"`
	Hashcons   FootprintComponent `json:"hashcons"`
	Symbols    FootprintComponent `json:"symbols"`
	UnionFind  FootprintComponent `json:"union_find"`
	Classes    FootprintComponent `json:"classes"`
	Parents    FootprintComponent `json:"parents"`
	Provenance FootprintComponent `json:"provenance"`
	Total      int64              `json:"total"`
}

// symbolBytes is the symbol table's logical footprint: every interned
// string's contents once, plus a slice entry (string header) and a map
// entry (string header + SymID) per symbol.
func (t *SymbolTable) symbolBytes() int64 {
	return t.nameBytes + int64(len(t.names))*(2*strHeaderSize+symIDSize)
}

// Footprint returns the per-component logical footprint. O(1): every value
// is derived from container lengths and the incrementally maintained
// counters, never from walking the graph.
func (g *EGraph) Footprint() Footprint {
	var fp Footprint
	// The node table and its Args arena, plus one list entry per node in
	// a class list.
	fp.Nodes = FootprintComponent{
		Entries: g.nodeCount,
		Bytes: int64(g.numStored)*enodeSize + g.argCount*classIDSize +
			int64(g.nodeCount)*nodeIDSize,
	}
	fp.Hashcons = FootprintComponent{
		Entries: g.memo.count,
		Bytes:   int64(g.memo.count) * parentSize,
	}
	fp.Symbols = FootprintComponent{
		Entries: g.syms.Len(),
		Bytes:   g.syms.symbolBytes(),
	}
	fp.UnionFind = FootprintComponent{
		Entries: len(g.uf),
		Bytes:   int64(len(g.uf)) * (classIDSize + rankSize),
	}
	// One *EClass slot per issued ID (a union loser's slot stays, holding
	// nil) plus one EClass struct per live class.
	fp.Classes = FootprintComponent{
		Entries: g.numClasses,
		Bytes:   int64(len(g.classes))*classPtrSize + int64(g.numClasses)*eclassSize,
	}
	fp.Parents = FootprintComponent{
		Entries: g.parentCount,
		Bytes:   int64(g.parentCount) * parentSize,
	}
	if g.prov != nil {
		nodes, unions := len(g.prov.nodes), len(g.prov.unions)
		fp.Provenance = FootprintComponent{
			Entries: nodes + unions,
			Bytes:   int64(nodes)*(nodeIDSize+justSize) + int64(unions)*unionStepSize,
		}
	}
	fp.Total = fp.Nodes.Bytes + fp.Hashcons.Bytes + fp.Symbols.Bytes +
		fp.UnionFind.Bytes + fp.Classes.Bytes + fp.Parents.Bytes +
		fp.Provenance.Bytes
	return fp
}

// FootprintBytes returns the e-graph's total logical bytes (the Footprint
// Total). It is O(1) and allocation-free, cheap enough to call at every
// Progress publish site.
func (g *EGraph) FootprintBytes() int64 { return g.Footprint().Total }
