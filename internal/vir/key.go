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

// valueTable is LVN's table from keys to value numbers. LVN numbers its
// values 0, 1, 2, ... in the order it first meets their keys, so entry e of
// the table is value e. The keys sit back to back in one byte slice, and an
// open-addressed slot array sized once for the input finds them by hash, so
// a lookup allocates nothing and an insert only appends.
type valueTable struct {
	seed  maphash.Seed
	slots []int32 // entry+1 for an occupied slot, 0 for an empty one
	keys  []byte  // entry e's key is keys[ends[e-1]:ends[e]]
	ends  []int32
}

// newValueTable returns an empty table with room for n entries.
func newValueTable(n int) *valueTable {
	size := 1
	for size < 2*n { // load factor at most 1/2
		size <<= 1
	}
	return &valueTable{
		seed:  maphash.MakeSeed(),
		slots: make([]int32, size),
		ends:  make([]int32, 0, n),
	}
}

// number returns the value number of key, adding key as the next value when
// the table does not hold it yet; found reports whether it did.
func (t *valueTable) number(key []byte) (id ID, found bool) {
	mask := len(t.slots) - 1
	h := int(maphash.Bytes(t.seed, key)) & mask
	for ; t.slots[h] != 0; h = (h + 1) & mask {
		e := t.slots[h] - 1
		lo := int32(0)
		if e > 0 {
			lo = t.ends[e-1]
		}
		if bytes.Equal(t.keys[lo:t.ends[e]], key) {
			return ID(e), true
		}
	}
	e := len(t.ends)
	t.keys = append(t.keys, key...)
	t.ends = append(t.ends, int32(len(t.keys)))
	t.slots[h] = int32(e + 1)
	return ID(e), false
}
