package egraph

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"diospyros/internal/expr"
)

// The hashcons (hashcons.go) is only sound if its node equality coincides
// exactly with the legacy string-key equality the e-graph was built on: a
// missed equality would stop deduplicating congruent nodes, and a new one
// would merge distinct nodes. Equal nodes must also hash alike, or a probe
// starts its search at the wrong slot. These tests drive all three
// properties against appendLegacyKey, the pre-§14 encoder retained as the
// oracle.

// keyGen builds shape-valid random e-nodes over a small universe of
// symbols, literals, and child IDs — small on purpose, so collisions
// between distinct draws are common and the equivalence is exercised, not
// just vacuously true.
type keyGen struct {
	g    *EGraph
	r    *rand.Rand
	syms []SymID
}

func newKeyGen(seed int64) *keyGen {
	g := New()
	names := []string{"", "a", "b", "x", "arr", "recip", "much-longer-symbol-name"}
	syms := make([]SymID, len(names))
	for i, n := range names {
		syms[i] = g.InternSym(n)
	}
	return &keyGen{g: g, r: rand.New(rand.NewSource(seed)), syms: syms}
}

func (kg *keyGen) node() ENode {
	lits := []float64{0, 1, -1, 0.5, 2, math.Pi}
	op := expr.Op(kg.r.Intn(int(expr.NumOps)))
	n := ENode{Op: op}
	switch op {
	case expr.OpLit:
		n.Lit = lits[kg.r.Intn(len(lits))]
	case expr.OpSym:
		n.Sym = kg.syms[kg.r.Intn(len(kg.syms))]
	case expr.OpGet:
		n.Sym = kg.syms[kg.r.Intn(len(kg.syms))]
		n.Idx = kg.r.Intn(4)
	default:
		if op == expr.OpFunc || op == expr.OpVecFunc {
			n.Sym = kg.syms[kg.r.Intn(len(kg.syms))]
		}
		// 0..6 children spans the leaf, binary and Vec arities.
		for i, k := 0, kg.r.Intn(7); i < k; i++ {
			n.Args = append(n.Args, ClassID(kg.r.Intn(4)))
		}
	}
	return n
}

// checkAgainstLegacy asserts the three properties for one node pair:
// equal legacy keys imply sameNode, sameNode implies equal legacy keys,
// and sameNode implies equal hashes.
func checkAgainstLegacy(t *testing.T, g *EGraph, a, b ENode) {
	t.Helper()
	legacy := string(g.appendLegacyKey(nil, a)) == string(g.appendLegacyKey(nil, b))
	same := g.sameNode(a, false, b)
	if same != legacy {
		t.Fatalf("equality diverges from the legacy key:\n%v vs %v\nsameNode=%v legacy equal=%v",
			a, b, same, legacy)
	}
	if same && g.hashNode(a, false) != g.hashNode(b, false) {
		t.Fatalf("equal nodes hash apart:\n%v vs %v", a, b)
	}
}

// TestMemoKeyMatchesLegacyOracle draws many random nodes and checks each
// against the recent draws and against the first draw of its legacy key,
// so every legacy-equal pair the draw produces is compared.
func TestMemoKeyMatchesLegacyOracle(t *testing.T) {
	kg := newKeyGen(1)
	g := kg.g
	first := map[string]ENode{}
	var recent []ENode
	equal := 0
	for i := 0; i < 50000; i++ {
		n := kg.node()
		legacy := string(g.appendLegacyKey(nil, n))
		if prev, ok := first[legacy]; ok {
			checkAgainstLegacy(t, g, n, prev)
			equal++
		} else {
			first[legacy] = n
		}
		for _, m := range recent {
			checkAgainstLegacy(t, g, n, m)
		}
		if recent = append(recent, n); len(recent) > 32 {
			recent = recent[1:]
		}
	}
	if equal == 0 {
		t.Fatal("no two draws were equal: the oracle was never exercised")
	}
}

// TestMemoKeyZeroChildAmbiguity pins the arity disambiguation: ClassID 0
// is a valid child, so an n-ary node of all-zero children must not equal
// the (n-1)-ary one.
func TestMemoKeyZeroChildAmbiguity(t *testing.T) {
	g := New()
	for arity := 0; arity <= 6; arity++ {
		a := ENode{Op: expr.OpVec, Args: make([]ClassID, arity)}
		b := ENode{Op: expr.OpVec, Args: make([]ClassID, arity+1)}
		if g.sameNode(a, false, b) {
			t.Fatalf("all-zero Vec/%d and Vec/%d compare equal", arity, arity+1)
		}
		checkAgainstLegacy(t, g, a, b)
	}
}

// TestHashconsRemoveFromCollisionRun deletes each entry of a table whose
// entries share home slots, one deletion per fresh table, and checks the
// backward shift leaves every other entry reachable from its home and the
// deleted one gone.
func TestHashconsRemoveFromCollisionRun(t *testing.T) {
	g := New()
	var ids []NodeID
	for i := 0; i < 512; i++ {
		g.AddLit(float64(i))
		ids = append(ids, NodeID(i))
	}
	// 512 literals over 16 home slots give every home many nodes. Insert
	// one node of home 1 (it lands at its home, slot 1), three of home 0
	// (slots 0, 2, 3) and one of home 2 (slot 4): one run in which a node
	// sits at its own home, which no deletion may shift before it.
	const size = 16
	byHome := map[int][]NodeID{}
	for _, id := range ids {
		h := int(g.hashNode(g.Node(id), false)) & (size - 1)
		byHome[h] = append(byHome[h], id)
	}
	if len(byHome[0]) < 3 || len(byHome[1]) < 1 || len(byHome[2]) < 1 {
		t.Fatalf("setup: homes 0, 1, 2 hold %d, %d, %d nodes", len(byHome[0]), len(byHome[1]), len(byHome[2]))
	}
	pick := []NodeID{byHome[1][0], byHome[0][0], byHome[0][1], byHome[0][2], byHome[2][0]}
	build := func() *hashcons {
		var h hashcons
		h.reset(size / 2)
		for _, id := range pick {
			i, ok := h.find(g, g.Node(id), false)
			if ok {
				t.Fatalf("setup: node %d already present", id)
			}
			h.put(g, i, false, parent{node: id, class: ClassID(id)})
		}
		for i, id := range []NodeID{pick[1], pick[0], pick[2], pick[3], pick[4]} {
			if h.slots[i].node != id {
				t.Fatalf("setup: slot %d holds node %d, want %d", i, h.slots[i].node, id)
			}
		}
		return &h
	}
	for _, gone := range pick {
		h := build()
		i, ok := h.find(g, g.Node(gone), false)
		if !ok {
			t.Fatalf("node %d missing before its removal", gone)
		}
		h.remove(g, i)
		if _, ok := h.find(g, g.Node(gone), false); ok {
			t.Fatalf("node %d still found after its removal", gone)
		}
		if h.count != len(pick)-1 {
			t.Fatalf("count %d after one removal from %d", h.count, len(pick))
		}
		for _, id := range pick {
			if id == gone {
				continue
			}
			i, ok := h.find(g, g.Node(id), false)
			if !ok || h.slots[i] != (parent{node: id, class: ClassID(id)}) {
				t.Fatalf("removing node %d lost node %d", gone, id)
			}
		}
	}
}

// FuzzMemoKeyEquivalence fuzzes the same three properties with
// coverage-guided node shapes: the fuzzer chooses ops, payload indices,
// and children from its byte stream.
func FuzzMemoKeyEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{13, 13, 0, 0, 0, 0, 0, 0}, []byte{13, 13, 0, 0, 0, 0, 0})
	vec := byte(expr.OpVec)
	f.Add([]byte{vec, 0, 0, 0, 0}, []byte{vec, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ba, bb []byte) {
		g := New()
		names := []string{"", "a", "b", "fn"}
		syms := make([]SymID, len(names))
		for i, n := range names {
			syms[i] = g.InternSym(n)
		}
		decode := func(b []byte) ENode {
			if len(b) == 0 {
				return ENode{}
			}
			op := expr.Op(int(b[0]) % int(expr.NumOps))
			n := ENode{Op: op}
			rest := b[1:]
			at := func(i int) byte {
				if i < len(rest) {
					return rest[i]
				}
				return 0
			}
			switch op {
			case expr.OpLit:
				n.Lit = float64(int8(at(0)))
			case expr.OpSym:
				n.Sym = syms[int(at(0))%len(syms)]
			case expr.OpGet:
				n.Sym = syms[int(at(0))%len(syms)]
				n.Idx = int(at(1)) % 8
			default:
				if op == expr.OpFunc || op == expr.OpVecFunc {
					n.Sym = syms[int(at(0))%len(syms)]
					rest = rest[minInt(1, len(rest)):]
				}
				for _, c := range rest {
					n.Args = append(n.Args, ClassID(c%5))
				}
			}
			return n
		}
		checkAgainstLegacy(t, g, decode(ba), decode(bb))
	})
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// appendLegacyKey appends the pre-§14 string hashcons encoding of n:
// operator byte, then the payload (literal bits, symbol bytes, Get index,
// length-prefixed function name), then the child class IDs little-endian.
// The node-ID hashcons has no key at all; this encoding survives here only
// as the oracle of the equality tests.
func (g *EGraph) appendLegacyKey(b []byte, n ENode) []byte {
	b = append(b, byte(n.Op))
	switch n.Op {
	case expr.OpLit:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(n.Lit))
	case expr.OpSym:
		b = append(b, g.syms.Name(n.Sym)...)
	case expr.OpGet:
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(n.Idx)))
		b = append(b, g.syms.Name(n.Sym)...)
	case expr.OpFunc, expr.OpVecFunc:
		sym := g.syms.Name(n.Sym)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(sym)))
		b = append(b, sym...)
	}
	for _, a := range n.Args {
		b = binary.LittleEndian.AppendUint32(b, uint32(a))
	}
	return b
}
