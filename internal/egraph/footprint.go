package egraph

import "unsafe"

// Footprint accounting. The e-graph keeps three incremental counters —
// Args arena slots, hashcons overflow-key bytes, and the parent-list
// entry count — updated at the same mutation sites that already maintain
// nodeCount, so Footprint() is O(1) arithmetic over them plus container
// lengths (the symbol table maintains its own string-byte counter the same
// way). The resulting "logical bytes" are the bytes the e-graph's own data
// structures account for: struct sizes come from the compiler
// (unsafe.Sizeof constants), variable-length payloads (child ID slices,
// interned symbol strings, wide-key overflow bytes) from their lengths. Go
// map bucket overhead and allocator slack are deliberately excluded:
// logical bytes are a deterministic lower bound that is bit-identical
// across runs and worker counts — the property that lets the bench suite
// gate on them — while allocator truth comes from the telemetry heap
// sampler and pprof profiles.
//
// §14 layout amendments to the §13 accounting rules:
//
//   - A hashcons entry is memoKeySize + classIDSize (the fixed-size binary
//     key struct plus the value), with wide-node overflow bytes (children
//     beyond the four inline slots) summed separately in memoRestBytes.
//     String-keyed accounting (strHeaderSize + key contents) is gone with
//     the string keys themselves.
//   - Node payloads no longer include symbol bytes: a node stores a 4-byte
//     SymID inline in the struct. Each symbol's string contents are counted
//     once, in the new Symbols component, however many nodes share it.
//   - Provenance entries are keyed by the binary key too: memoKeySize +
//     justSize each. Overflow bytes of a provenance key alias the hashcons
//     entry's and are attributed once, to the hashcons.
//   - The class table is a slice indexed by ClassID (DESIGN.md §14.5): one
//     pointer slot per issued ID, including the nil slots union losers
//     leave, plus one EClass struct per live class. There is no map key.
//   - The flat node store (DESIGN.md §14.6): each e-node is one ENode in
//     the node table, counted once however many lists name it, and stays
//     there when Rebuild drops it from its class's list as a duplicate.
//     Its children are Args arena slots, 4 bytes each. A class list entry
//     is a 4-byte NodeID, and a parent entry is a NodeID and a ClassID
//     (8 bytes), where it used to be a full ENode copy. Chunk slack in the
//     arena, the node pages and the class slabs is allocator slack and
//     is not counted.
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
	memoKeySize   = int64(unsafe.Sizeof(memoKey{}))
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
// e-node structs and payloads, the hashcons (binary keys plus map entries),
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
		Entries: len(g.memo),
		Bytes:   int64(len(g.memo))*(memoKeySize+classIDSize) + g.memoRestBytes,
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
			// Justification keys are binary hashcons keys; overflow bytes
			// alias the hashcons entry's and are attributed once, to the
			// hashcons, so only the fixed-size key and value count here.
			Bytes: int64(nodes)*(memoKeySize+justSize) + int64(unions)*unionStepSize,
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
