package egraph

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"

	"diospyros/internal/expr"
)

// The hashcons (DESIGN.md §14.2) finds a node's NodeID by content: an
// open-addressed table of {NodeID, ClassID} slots, at most half full, with
// linear probing and backward-shift deletion. A probe compares against a
// slot's node as the node table stores it, never through Find, so a slot
// sits where its node's stored children hash: canonicalize takes a node
// out before rewriting its children, and repair puts it back. The hash is
// seeded per graph, so source text cannot be crafted to collide probes.
type hashcons struct {
	slots []parent // node == freeSlot marks an empty slot
	count int      // occupied slots
}

// freeSlot is the node of an empty slot; no node table grows that far.
const freeSlot = ^NodeID(0)

// nodeWords packs what the legacy string key encoded besides the children:
// the operator, the arity and the symbol of OpSym, OpGet, OpFunc and
// OpVecFunc in head, a literal's bits or a Get index in payload. Stray
// payloads on other operators are ignored.
func nodeWords(n ENode) (head, payload uint64) {
	head = uint64(n.Op)<<56 | uint64(uint16(len(n.Args)))<<40
	switch n.Op {
	case expr.OpLit:
		payload = math.Float64bits(n.Lit)
	case expr.OpGet:
		head, payload = head|uint64(n.Sym), uint64(uint32(int32(n.Idx)))
	case expr.OpSym, expr.OpFunc, expr.OpVecFunc:
		head |= uint64(n.Sym)
	}
	return head, payload
}

// hashNode is the one content hash; sameNode below is the one equality.
// With find set, n's children count as their canonical classes (a probe
// from Add, Lookup or NodeProvenance); without, as stored. A node too wide
// for the stack buffer is hashed a buffer at a time, each buffer starting
// with the hash of the one before.
func (g *EGraph) hashNode(n ENode, find bool) uint64 {
	var buf [64]byte
	head, payload := nodeWords(n)
	binary.LittleEndian.PutUint64(buf[0:], head)
	binary.LittleEndian.PutUint64(buf[8:], payload)
	at := 16
	for _, a := range n.Args {
		if at == len(buf) {
			binary.LittleEndian.PutUint64(buf[0:], maphash.Bytes(g.seed, buf[:]))
			at = 8
		}
		if find {
			a = g.Find(a)
		}
		binary.LittleEndian.PutUint32(buf[at:], uint32(a))
		at += 4
	}
	return maphash.Bytes(g.seed, buf[:at])
}

// sameNode reports whether n equals the stored node m.
func (g *EGraph) sameNode(n ENode, find bool, m ENode) bool {
	nh, np := nodeWords(n)
	mh, mp := nodeWords(m)
	if nh != mh || np != mp || len(n.Args) != len(m.Args) {
		return false
	}
	for i, a := range n.Args {
		if find {
			a = g.Find(a)
		}
		if a != m.Args[i] {
			return false
		}
	}
	return true
}

// find returns the slot holding a node equal to n, or else the free slot
// ending n's probe sequence. The table must have been reset.
func (t *hashcons) find(g *EGraph, n ENode, find bool) (int, bool) {
	mask := len(t.slots) - 1
	for i := int(g.hashNode(n, find)) & mask; ; i = (i + 1) & mask {
		if s := t.slots[i]; s.node == freeSlot {
			return i, false
		} else if g.sameNode(n, find, g.Node(s.node)) {
			return i, true
		}
	}
}

// put stores s in slot i, which find returned for s's node: over the
// equal node find found, or in the free slot, first doubling a table that
// would be more than half full.
func (t *hashcons) put(g *EGraph, i int, found bool, s parent) {
	if found {
		t.slots[i] = s
		return
	}
	if 2*(t.count+1) > len(t.slots) {
		old := t.slots
		t.slots = nil
		t.reset(max(8, len(old)))
		for _, o := range old {
			if o.node != freeSlot {
				j, _ := t.find(g, g.Node(o.node), false)
				t.put(g, j, false, o)
			}
		}
		i, _ = t.find(g, g.Node(s.node), false)
	}
	t.slots[i] = s
	t.count++
}

// remove empties slot i, shifting later slots of its probe run back so
// every remaining node stays reachable from its home slot.
func (t *hashcons) remove(g *EGraph, i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].node != freeSlot; j = (j + 1) & mask {
		// Slot j may fill the hole unless its home lies cyclically in (i, j].
		home := int(g.hashNode(g.Node(t.slots[j].node), false)) & mask
		if (j-home)&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = parent{node: freeSlot}
	t.count--
}

// reset empties the table and sizes it for n entries.
func (t *hashcons) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	t.slots = slices.Grow(t.slots[:0], size)[:size]
	for i := range t.slots {
		t.slots[i] = parent{node: freeSlot}
	}
	t.count = 0
}
