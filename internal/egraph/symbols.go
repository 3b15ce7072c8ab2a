package egraph

import "diospyros/internal/expr"

// Symbol interning. Every string payload an e-node can carry (free
// variables, Get array names, uninterpreted function names) is interned
// once per graph into a SymbolTable, and the node stores only the resulting
// 32-bit SymID. Node comparisons and hashcons hashing therefore never touch
// string bytes (hashcons.go). IDs are assigned in first-intern order, which
// is deterministic for a deterministic insertion sequence — the property the
// DESIGN.md §9/§14 bit-identical-artifacts contract rests on — but they are
// graph-local: a SymID from one graph is meaningless in another.

// SymID identifies an interned symbol within one e-graph. The zero value
// NoSym is the empty string, so zero-valued ENodes remain well-formed.
type SymID uint32

// NoSym is the SymID of the empty string (the payload of nodes that carry
// no symbol).
const NoSym SymID = 0

// SymbolTable is a per-graph bijection between symbol strings and dense
// SymIDs. The zero value is ready to use. It is not safe for concurrent
// mutation; the read-only match phase only calls Name and Lookup, which are
// safe once the graph is no longer being mutated (the same contract as
// every other e-graph read).
type SymbolTable struct {
	names []string
	ids   map[string]SymID

	// nameBytes sums the interned strings' contents, maintained so the
	// footprint accounting (footprint.go) stays O(1).
	nameBytes int64
}

// init lazily installs the table's sentinel entry for NoSym.
func (t *SymbolTable) init() {
	if t.ids == nil {
		t.ids = map[string]SymID{"": NoSym}
		t.names = append(t.names, "")
	}
}

// Intern returns the ID for s, assigning the next dense ID on first use.
func (t *SymbolTable) Intern(s string) SymID {
	t.init()
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := SymID(len(t.names))
	t.names = append(t.names, s)
	t.ids[s] = id
	t.nameBytes += int64(len(s))
	return id
}

// Lookup returns the ID already assigned to s, if any. A symbol that was
// never interned cannot occur in any node of the graph — the fact the
// pattern matcher uses to reject payload patterns without string compares.
func (t *SymbolTable) Lookup(s string) (SymID, bool) {
	if s == "" {
		return NoSym, true
	}
	id, ok := t.ids[s]
	return id, ok
}

// Name returns the string for an interned ID. IDs never issued by this
// table return "".
func (t *SymbolTable) Name(id SymID) string {
	if int(id) >= len(t.names) {
		return ""
	}
	return t.names[id]
}

// Len returns the number of interned symbols, including the "" sentinel
// once anything has been interned.
func (t *SymbolTable) Len() int { return len(t.names) }

// InternSym interns a symbol string in the graph's table, returning its ID.
// Callers constructing ENodes by hand (custom searchers introducing new
// function names) must intern payloads through the graph they add to.
func (g *EGraph) InternSym(s string) SymID { return g.syms.Intern(s) }

// SymName resolves an interned symbol ID back to its string.
func (g *EGraph) SymName(id SymID) string { return g.syms.Name(id) }

// LookupSym returns the ID assigned to s, if s was ever interned here.
func (g *EGraph) LookupSym(s string) (SymID, bool) { return g.syms.Lookup(s) }

// LeafNode builds a terminal node for the given operator and payload,
// interning the symbol in this graph's table. It does not add the node;
// pair it with Lookup to probe for an existing leaf, or Add to insert it.
func (g *EGraph) LeafNode(op expr.Op, lit float64, sym string, idx int) ENode {
	return ENode{Op: op, Lit: lit, Sym: g.InternSym(sym), Idx: idx}
}
