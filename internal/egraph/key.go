package egraph

import (
	"encoding/binary"
	"math"

	"diospyros/internal/expr"
)

// The binary hashcons key. Before the data-layout overhaul (DESIGN.md §14)
// the hashcons was keyed by a heap-allocated string — one allocation and a
// byte-wise hash per Add. memoKey replaces it with a fixed-size comparable
// struct: three machine words cover the operator, arity, symbol ID, literal
// bits / Get index, and the first four child class IDs, and only nodes with
// five or more children spill the remainder into an overflow string. Go
// hashes the struct natively, so hashcons probes for the overwhelmingly
// common leaf/unary/binary/4-lane-Vec cases allocate nothing and never
// touch string bytes.
//
// Layout (byte-level; see the DESIGN.md §14 diagram):
//
//	head: [op:8][arity:16][unused:8][sym:32]
//	w0:   OpLit → IEEE-754 bits of Lit
//	      OpGet → uint32(Idx) (zero-extended)
//	      else  → [child0:32][child1:32], zero-padded
//	w1:   [child2:32][child3:32], zero-padded
//	rest: children 4..arity-1, 4 bytes little-endian each ("" when arity ≤ 4)
//
// Key equality is exactly legacy string-key equality: op and arity are
// explicit, the symbol ID is a per-graph bijection with the symbol string,
// and zero-padding cannot collide because arity disambiguates how many
// child slots are meaningful (ClassID 0 is a valid child). The property
// test in key_test.go fuzzes this equivalence against the legacy encoder,
// kept there as the oracle.
type memoKey struct {
	head uint64
	w0   uint64
	w1   uint64
	rest string
}

// restArity is the child count above which a key needs overflow bytes.
const restArity = 4

// makeKey builds the hashcons key for a canonicalized node. Allocation-free
// for nodes with at most restArity children; wider nodes copy their
// overflow children out of the graph's reusable key buffer, so the buffer
// can be reused immediately (string conversion copies).
func (g *EGraph) makeKey(n ENode) memoKey {
	k := memoKey{
		head: uint64(n.Op)<<56 | uint64(uint16(len(n.Args)))<<40,
	}
	switch n.Op {
	case expr.OpSym, expr.OpGet, expr.OpFunc, expr.OpVecFunc:
		// Only the symbol-carrying operators fold Sym into the key — the
		// legacy encoding ignored stray payloads on other operators, and
		// key equality must match it exactly.
		k.head |= uint64(n.Sym)
	}
	switch n.Op {
	case expr.OpLit:
		k.w0 = math.Float64bits(n.Lit)
		return k
	case expr.OpGet:
		k.w0 = uint64(uint32(int32(n.Idx)))
		return k
	}
	a := n.Args
	switch {
	case len(a) > 3:
		k.w1 |= uint64(a[3])
		fallthrough
	case len(a) > 2:
		k.w1 |= uint64(a[2]) << 32
		fallthrough
	case len(a) > 1:
		k.w0 |= uint64(a[1])
		fallthrough
	case len(a) > 0:
		k.w0 |= uint64(a[0]) << 32
	}
	if len(a) > restArity {
		b := g.keyBuf[:0]
		for _, c := range a[restArity:] {
			b = binary.LittleEndian.AppendUint32(b, uint32(c))
		}
		g.keyBuf = b
		k.rest = string(b) // copies: keyBuf stays reusable
	}
	return k
}

// lookupKey is makeKey for a node whose children may be non-canonical: it
// canonicalizes each child through Find while packing, so read-only probes
// (Lookup, NodeProvenance) need no defensive clone of the caller's Args —
// the key is built without mutating n. makeKey must NOT do this: repair
// depends on keying a parent by its stale child IDs to locate the hashcons
// entry it is about to displace.
func (g *EGraph) lookupKey(n ENode) memoKey {
	k := memoKey{
		head: uint64(n.Op)<<56 | uint64(uint16(len(n.Args)))<<40,
	}
	switch n.Op {
	case expr.OpSym, expr.OpGet, expr.OpFunc, expr.OpVecFunc:
		k.head |= uint64(n.Sym)
	}
	switch n.Op {
	case expr.OpLit:
		k.w0 = math.Float64bits(n.Lit)
		return k
	case expr.OpGet:
		k.w0 = uint64(uint32(int32(n.Idx)))
		return k
	}
	a := n.Args
	switch {
	case len(a) > 3:
		k.w1 |= uint64(g.Find(a[3]))
		fallthrough
	case len(a) > 2:
		k.w1 |= uint64(g.Find(a[2])) << 32
		fallthrough
	case len(a) > 1:
		k.w0 |= uint64(g.Find(a[1]))
		fallthrough
	case len(a) > 0:
		k.w0 |= uint64(g.Find(a[0])) << 32
	}
	if len(a) > restArity {
		b := g.keyBuf[:0]
		for _, c := range a[restArity:] {
			b = binary.LittleEndian.AppendUint32(b, uint32(g.Find(c)))
		}
		g.keyBuf = b
		k.rest = string(b) // copies: keyBuf stays reusable
	}
	return k
}

// restBytes is the key's overflow payload size — the only part of a key the
// byte-exact footprint accounting (§13) cannot derive from the struct size.
func (k memoKey) restBytes() int64 { return int64(len(k.rest)) }
