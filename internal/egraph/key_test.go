package egraph

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"diospyros/internal/expr"
)

// The §14 binary hashcons is only sound if memoKey equality coincides
// exactly with the legacy string-key equality the e-graph was built on:
// a missed collision would stop deduplicating congruent nodes, and a new
// collision would merge distinct nodes. These tests drive both directions
// against appendLegacyKey, the pre-§14 encoder retained as the oracle.

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
		// 0..6 children spans the inline fast path (≤ restArity) and the
		// overflow-string slow path.
		for i, k := 0, kg.r.Intn(7); i < k; i++ {
			n.Args = append(n.Args, ClassID(kg.r.Intn(4)))
		}
	}
	return n
}

// TestMemoKeyMatchesLegacyOracle draws many random node pairs and checks
// key equality is exactly legacy-encoding equality, in both directions.
func TestMemoKeyMatchesLegacyOracle(t *testing.T) {
	kg := newKeyGen(1)
	g := kg.g
	byKey := map[memoKey]string{}
	byLegacy := map[string]memoKey{}
	for i := 0; i < 50000; i++ {
		n := kg.node()
		k := g.makeKey(n)
		legacy := string(g.appendLegacyKey(nil, n))
		if prev, ok := byKey[k]; ok && prev != legacy {
			t.Fatalf("binary keys collide for distinct nodes:\nnode %v\nlegacy %q vs %q",
				n, legacy, prev)
		}
		byKey[k] = legacy
		if prev, ok := byLegacy[legacy]; ok && prev != k {
			t.Fatalf("legacy-equal nodes got distinct binary keys:\nnode %v\nkeys %+v vs %+v",
				n, k, prev)
		}
		byLegacy[legacy] = k
	}
	if len(byKey) != len(byLegacy) {
		t.Fatalf("key spaces diverged: %d binary vs %d legacy", len(byKey), len(byLegacy))
	}
}

// TestMemoKeyZeroChildAmbiguity pins the arity disambiguation: ClassID 0
// is a valid child, so an n-ary node of all-zero children must not collide
// with the (n-1)-ary one (zero padding alone could not tell them apart).
func TestMemoKeyZeroChildAmbiguity(t *testing.T) {
	g := New()
	for arity := 0; arity <= 6; arity++ {
		a := ENode{Op: expr.OpVec, Args: make([]ClassID, arity)}
		b := ENode{Op: expr.OpVec, Args: make([]ClassID, arity+1)}
		if g.makeKey(a) == g.makeKey(b) {
			t.Fatalf("all-zero Vec/%d and Vec/%d share a key", arity, arity+1)
		}
	}
}

// TestMemoKeyOverflowBufferReuse checks that keys built through the shared
// keyBuf stay valid after the buffer is reused for a different wide node —
// the bug class the string(b) copy in makeKey exists to prevent.
func TestMemoKeyOverflowBufferReuse(t *testing.T) {
	g := New()
	wide1 := ENode{Op: expr.OpVec, Args: []ClassID{1, 2, 3, 4, 5, 6}}
	wide2 := ENode{Op: expr.OpVec, Args: []ClassID{1, 2, 3, 4, 9, 8}}
	k1 := g.makeKey(wide1)
	k2 := g.makeKey(wide2)
	if k1 == k2 {
		t.Fatal("distinct wide nodes share a key")
	}
	if again := g.makeKey(wide1); again != k1 {
		t.Fatalf("key changed after buffer reuse: %+v vs %+v", again, k1)
	}
}

// FuzzMemoKeyEquivalence fuzzes the same equivalence with
// coverage-guided node shapes: the fuzzer chooses ops, payload indices,
// and children from its byte stream.
func FuzzMemoKeyEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{13, 13, 0, 0, 0, 0, 0, 0}, []byte{13, 13, 0, 0, 0, 0, 0})
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
		na, nb := decode(ba), decode(bb)
		ka, kb := g.makeKey(na), g.makeKey(nb)
		la := string(g.appendLegacyKey(nil, na))
		lb := string(g.appendLegacyKey(nil, nb))
		if (ka == kb) != (la == lb) {
			t.Fatalf("equivalence broken:\n%v vs %v\nbinary equal=%v legacy equal=%v",
				na, nb, ka == kb, la == lb)
		}
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
// The binary hashcons made this encoding obsolete; it survives here only as
// the collision oracle for the key-equivalence tests.
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
