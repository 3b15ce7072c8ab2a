package vir

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
)

// appendKey appends in's LVN key to b and returns the extended buffer. Two
// instructions compute the same value exactly when their keys are equal:
// the key holds Op, Array, Off, Lane, N, F, Fs, Idx, Sym and Args in that
// order, with a length prefix on every slice and string, so no two field
// lists encode alike. Floats are encoded by their bits with every NaN
// folded into one pattern: -0 and +0 stay distinct, all NaNs are equal,
// and any other two floats are equal only if they are the same float
// (DESIGN.md §15.1).
func (in *Instr) appendKey(b []byte) []byte {
	b = append(b, byte(in.Op))
	b = appendString(b, in.Array)
	b = binary.AppendVarint(b, int64(in.Off))
	b = binary.AppendVarint(b, int64(in.Lane))
	b = binary.AppendVarint(b, int64(in.N))
	b = appendFloat(b, in.F)
	b = binary.AppendUvarint(b, uint64(len(in.Fs)))
	for _, f := range in.Fs {
		b = appendFloat(b, f)
	}
	b = binary.AppendUvarint(b, uint64(len(in.Idx)))
	for _, k := range in.Idx {
		b = binary.AppendVarint(b, int64(k))
	}
	b = appendString(b, in.Sym)
	b = binary.AppendUvarint(b, uint64(len(in.Args)))
	for _, a := range in.Args {
		b = binary.AppendVarint(b, int64(a))
	}
	return b
}

// nanBits is the one bit pattern appendFloat writes for every NaN.
var nanBits = math.Float64bits(math.NaN())

func appendFloat(b []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if f != f {
		bits = nanBits
	}
	return binary.LittleEndian.AppendUint64(b, bits)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// valueTable is LVN's table from keys to the first instruction computing
// each value. It holds positions in the program, not keys: an open-
// addressed slot array sized once for the program finds a position by its
// key's hash, and a hash match is confirmed by encoding the stored
// instruction's key again. Once its two key buffers have grown, neither a
// lookup nor an insert allocates. reset empties it for the next LVN run
// over the same program, whose instructions must not move in between.
type valueTable struct {
	seed       maphash.Seed
	slots      []valueSlot
	key, probe []byte // the instruction's key, and a stored one's
}

// valueSlot is one slot: the position+1 of an instruction (0 when empty)
// and the high half of its key's hash, which the slot index does not use.
type valueSlot struct {
	pos  int32
	hash uint32
}

// newValueTable returns an empty table with room for n entries.
func newValueTable(n int) *valueTable {
	size := 1
	for size < 2*n { // load factor at most 1/2
		size <<= 1
	}
	return &valueTable{seed: maphash.MakeSeed(), slots: make([]valueSlot, size)}
}

func (t *valueTable) reset() { clear(t.slots) }

// first returns the position of the first instruction in instrs whose key
// equals that of instrs[i], adding i when the table holds none.
func (t *valueTable) first(instrs []Instr, i int) int {
	t.key = instrs[i].appendKey(t.key[:0])
	h := maphash.Bytes(t.seed, t.key)
	mask := len(t.slots) - 1
	s, tag := int(h)&mask, uint32(h>>32)
	for ; t.slots[s].pos != 0; s = (s + 1) & mask {
		if t.slots[s].hash != tag {
			continue
		}
		j := int(t.slots[s].pos - 1)
		t.probe = instrs[j].appendKey(t.probe[:0])
		if bytes.Equal(t.probe, t.key) {
			return j
		}
	}
	t.slots[s] = valueSlot{pos: int32(i + 1), hash: tag}
	return i
}
