package vir

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

// fmtKey is the LVN key before binary keys: every field printed with fmt
// and joined by '|'. It survives here only as the oracle for
// FuzzLVNKeyEquivalence. It is injective when Array and Sym are
// identifiers, and %g prints -0 and +0 differently, every NaN alike, and
// any other two floats alike only if they are equal.
func fmtKey(in Instr) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%s|%d|%d|%d|%g|%v|%v|%s", in.Op, in.Array, in.Off,
		in.Lane, in.N, in.F, in.Fs, in.Idx, in.Sym)
	for _, a := range in.Args {
		fmt.Fprintf(&b, "|%d", a)
	}
	return b.String()
}

// keyNames are the identifiers the fuzzer picks Array and Sym from.
var keyNames = []string{"", "a", "b", "ab", "in_1"}

// Flag bits of an encoded instruction: Fs and Idx are nil unless set.
const (
	hasFs  = 1 << 0
	hasIdx = 1 << 1
)

// decodeInstr reads an instruction from the fuzzer's bytes. The layout is
// op, array, sym, off, lane, n, the 8 bytes of F, a flag byte, three
// lengths, then the Fs floats (8 bytes each), the Idx entries and the Args
// (one signed byte each). Missing bytes read as zero.
func decodeInstr(b []byte) Instr {
	at := 0
	next := func() byte {
		if at >= len(b) {
			at++
			return 0
		}
		at++
		return b[at-1]
	}
	float := func() float64 {
		var w [8]byte
		for i := range w {
			w[i] = next()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
	}
	in := Instr{
		Op:    Op(next() % byte(NumOps)),
		Array: keyNames[int(next())%len(keyNames)],
		Sym:   keyNames[int(next())%len(keyNames)],
		Off:   int(int8(next())),
		Lane:  int(int8(next())),
		N:     int(int8(next())),
		F:     float(),
	}
	flags := next()
	nFs, nIdx, nArgs := int(next()%5), int(next()%5), int(next()%4)
	if flags&hasFs != 0 {
		in.Fs = make([]float64, nFs)
		for i := range in.Fs {
			in.Fs[i] = float()
		}
	}
	if flags&hasIdx != 0 {
		in.Idx = make([]int, nIdx)
		for i := range in.Idx {
			in.Idx[i] = int(int8(next()))
		}
	}
	for i := 0; i < nArgs; i++ {
		in.Args = append(in.Args, ID(int8(next())))
	}
	return in
}

// encodeInstr is decodeInstr's inverse for instructions it can express.
func encodeInstr(in Instr) []byte {
	index := func(s string) byte {
		for i, n := range keyNames {
			if n == s {
				return byte(i)
			}
		}
		panic("not a key name: " + s)
	}
	b := []byte{byte(in.Op), index(in.Array), index(in.Sym),
		byte(int8(in.Off)), byte(int8(in.Lane)), byte(int8(in.N))}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(in.F))
	var flags byte
	if in.Fs != nil {
		flags |= hasFs
	}
	if in.Idx != nil {
		flags |= hasIdx
	}
	b = append(b, flags, byte(len(in.Fs)), byte(len(in.Idx)), byte(len(in.Args)))
	for _, f := range in.Fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	for _, k := range in.Idx {
		b = append(b, byte(int8(k)))
	}
	for _, a := range in.Args {
		b = append(b, byte(int8(a)))
	}
	return b
}

// FuzzLVNKeyEquivalence checks that the binary LVN key identifies exactly
// the instructions the fmt key identified: two keys are equal if and only
// if their oracle keys are.
func FuzzLVNKeyEquivalence(f *testing.F) {
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0xfff0000000000abc)
	idx := []int{3, 2, 1, 0}
	seeds := [][2]Instr{
		{{Op: ConstS, F: 0}, {Op: ConstS, F: math.Copysign(0, -1)}},
		{{Op: ConstS, F: nan1}, {Op: ConstS, F: nan2}},
		{{Op: ConstS, F: math.Inf(1)}, {Op: ConstS, F: math.Inf(-1)}},
		{{Op: ConstV, Fs: []float64{1, nan1}}, {Op: ConstV, Fs: []float64{1, nan2}}},
		{{Op: ConstV, Fs: []float64{0, 1}}, {Op: ConstV, Fs: []float64{math.Copysign(0, -1), 1}}},
		{{Op: ConstV}, {Op: ConstV, Fs: []float64{}}},
		{{Op: Shuffle, Args: []ID{1}}, {Op: Shuffle, Args: []ID{1}, Idx: []int{}}},
		{{Op: Shuffle, Args: []ID{1, 2}, Idx: idx}, {Op: Select, Args: []ID{1, 2}, Idx: idx}},
		{{Op: LoadV, Array: "a", Off: 4}, {Op: LoadV, Array: "a", Off: 4}},
		{{Op: CallS, Sym: "ab", Args: []ID{0}}, {Op: CallS, Sym: "a", Args: []ID{0}}},
	}
	for _, s := range seeds {
		f.Add(encodeInstr(s[0]), encodeInstr(s[1]))
	}
	f.Fuzz(func(t *testing.T, ba, bb []byte) {
		a, b := decodeInstr(ba), decodeInstr(bb)
		binEq := string(a.appendKey(nil)) == string(b.appendKey(nil))
		fmtEq := fmtKey(a) == fmtKey(b)
		if binEq != fmtEq {
			t.Fatalf("key equivalence broken:\n%+v\n%+v\nbinary equal=%v fmt equal=%v",
				a, b, binEq, fmtEq)
		}
	})
}

// TestLVNAllocationsIndependentOfLength holds LVN to a fixed number of
// allocations however many instructions it numbers: n copies of one load
// and a store cost the same at n = 16 and n = 4096.
func TestLVNAllocationsIndependentOfLength(t *testing.T) {
	allocs := func(n int) float64 {
		p := NewProgram("same", 4, decls([]string{"a"}, 4), decls([]string{"c"}, 1))
		var id ID
		for i := 0; i < n; i++ {
			id = p.Emit(Instr{Op: LoadS, Array: "a", Off: 0})
		}
		p.Emit(Instr{Op: StoreS, Args: []ID{id}, Array: "c", Off: 0})
		return testing.AllocsPerRun(20, func() {
			if q := LVN(p); len(q.Instrs) != 2 {
				t.Fatalf("LVN kept %d instrs, want 2", len(q.Instrs))
			}
		})
	}
	small, large := allocs(16), allocs(4096)
	if small != large {
		t.Fatalf("LVN allocates %v times at n=16 but %v at n=4096", small, large)
	}
}
