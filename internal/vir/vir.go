// Package vir defines Diospyros's machine-independent low-level vector IR
// (paper §4): straight-line SSA code over scalar and vector values, with
// named-array loads/stores, arbitrary-index shuffles and selects, and
// uninterpreted function calls. The extracted DSL program is lowered into
// this IR, cleaned up by local value numbering (LVN) and dead-code
// elimination, and then translated to either C-with-intrinsics text or
// FG3-lite assembly.
package vir

import (
	"fmt"
	"slices"
	"strings"

	"diospyros/internal/kernel"
)

// ID identifies an SSA value. Stores produce no value and use ID -1.
type ID int

// None marks the absence of a value.
const None ID = -1

// Op enumerates IR operations.
type Op uint8

const (
	// Scalar values.
	ConstS      Op = iota // the scalar constant F
	LoadS                 // Array[Off]
	AddS                  // Args[0] + Args[1]
	SubS                  // Args[0] - Args[1]
	MulS                  // Args[0] * Args[1]
	DivS                  // Args[0] / Args[1]
	NegS                  // -Args[0]
	SqrtS                 // sqrt(Args[0])
	SgnS                  // sgn(Args[0]): -1 if negative, else +1
	CallS                 // the uninterpreted function Sym applied to Args
	ExtractLane           // lane Lane of the vector Args[0]

	// Vector values (width W fixed by the target).
	ConstV  // the vector constant Fs
	LoadV   // Array[Off : Off+W] (contiguous, any alignment)
	Splat   // broadcast the scalar Args[0]
	Insert  // Args[0] with lane Lane replaced by scalar Args[1]
	Shuffle // lane k = Args[0][Idx[k]]
	Select  // lane k = concat(Args[0], Args[1])[Idx[k]]
	AddV    // Args[0] + Args[1] elementwise
	SubV    // Args[0] - Args[1] elementwise
	MulV    // Args[0] * Args[1] elementwise
	DivV    // Args[0] / Args[1] elementwise
	MacV    // Args[0] + Args[1]*Args[2] elementwise (functional SSA form)
	NegV    // -Args[0] elementwise
	SqrtV   // sqrt(Args[0]) elementwise
	SgnV    // sgn(Args[0]) elementwise
	CallV   // the uninterpreted function Sym applied lanewise to Args

	// Effects.
	StoreS  // mem: Array[Off] = Args[0]
	StoreV  // mem: Array[Off : Off+W] = Args[0]
	StoreVN // mem: Array[Off : Off+N] = first N lanes of Args[0]

	NumOps // the number of ops; not an op itself
)

var opNames = [NumOps]string{
	ConstS: "const.s", LoadS: "load.s", AddS: "add.s", SubS: "sub.s",
	MulS: "mul.s", DivS: "div.s", NegS: "neg.s", SqrtS: "sqrt.s",
	SgnS: "sgn.s", CallS: "call.s", ExtractLane: "extract",
	ConstV: "const.v", LoadV: "load.v", Splat: "splat", Insert: "insert",
	Shuffle: "shuffle", Select: "select",
	AddV: "add.v", SubV: "sub.v", MulV: "mul.v", DivV: "div.v",
	MacV: "mac.v", NegV: "neg.v", SqrtV: "sqrt.v", SgnV: "sgn.v",
	CallV:  "call.v",
	StoreS: "store.s", StoreV: "store.v", StoreVN: "store.vn",
}

// String returns the op's mnemonic, as the program dump prints it.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("virop(%d)", uint8(o))
}

// IsStore reports whether the op is a memory effect (produces no value).
func (o Op) IsStore() bool { return o == StoreS || o == StoreV || o == StoreVN }

// IsVectorValue reports whether the op produces a vector value.
func (o Op) IsVectorValue() bool {
	switch o {
	case ConstV, LoadV, Splat, Insert, Shuffle, Select,
		AddV, SubV, MulV, DivV, MacV, NegV, SqrtV, SgnV, CallV:
		return true
	}
	return false
}

// Instr is one IR instruction.
type Instr struct {
	ID    ID // -1 for stores
	Op    Op
	Args  []ID
	Array string    // for loads/stores
	Off   int       // element offset within Array
	Lane  int       // for Insert/ExtractLane
	N     int       // for StoreVN
	F     float64   // for ConstS
	Fs    []float64 // for ConstV
	Idx   []int     // for Shuffle/Select
	Sym   string    // for CallS/CallV
}

// Program is a straight-line IR program together with its interface
// metadata (which arrays are inputs and outputs, and their shapes).
type Program struct {
	Name    string
	Width   int
	Instrs  []Instr
	Inputs  []kernel.ArrayDecl
	Outputs []kernel.ArrayDecl
	next    ID
}

// NewProgram creates an empty program for the given kernel interface.
func NewProgram(name string, width int, inputs, outputs []kernel.ArrayDecl) *Program {
	return &Program{Name: name, Width: width, Inputs: inputs, Outputs: outputs}
}

// Emit appends an instruction, assigning it a fresh ID unless it is a store.
//
// A full instruction slice doubles. The programs built one Emit at a time
// are lowering's raw programs, which die once Optimize has run, so the
// bytes copied while growing matter more than spare capacity; append's
// gentler growth for large slices would copy each of them several times
// over. The passes size their outputs up front and never grow.
func (p *Program) Emit(in Instr) ID {
	if in.Op.IsStore() {
		in.ID = None
	} else {
		in.ID = p.next
		p.next++
	}
	if len(p.Instrs) == cap(p.Instrs) {
		p.Instrs = slices.Grow(p.Instrs, max(len(p.Instrs), 64))
	}
	p.Instrs = append(p.Instrs, in)
	return in.ID
}

// NumValues returns the number of SSA values defined.
func (p *Program) NumValues() int { return int(p.next) }

// derive returns an empty program with p's name, width and interface, with
// room for n instructions. Each pass counts its output before emitting it
// and passes the exact count, so the program a compile keeps carries no
// spare capacity.
func (p *Program) derive(n int) *Program {
	out := NewProgram(p.Name, p.Width, p.Inputs, p.Outputs)
	out.Instrs = make([]Instr, 0, n)
	return out
}

// argArena carves the Args of a pass's output out of one backing slice,
// sized by the pass's exact count, instead of allocating one slice per
// instruction. The arena belongs to the program the pass returns:
// FuseShuffles rewrites Args in place, so a pass must never carve into,
// or write through, its input's Args.
type argArena struct{ buf []ID }

// newArgArena returns an arena holding n IDs.
func newArgArena(n int) argArena { return argArena{buf: make([]ID, 0, n)} }

// take returns the next n zeroed IDs, their capacity clipped so an append
// to one carve cannot overwrite the next.
func (a *argArena) take(n int) []ID {
	lo := len(a.buf)
	a.buf = a.buf[:lo+n]
	return a.buf[lo : lo+n : lo+n]
}

// String renders the program in a readable text form.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; vir %s (width %d, %d instrs)\n", p.Name, p.Width, len(p.Instrs))
	for _, in := range p.Instrs {
		b.WriteString("  ")
		b.WriteString(in.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders the instruction on one line: its value ID (blank for a
// store), its op, then the operands that op reads.
func (in Instr) String() string {
	var b strings.Builder
	if in.ID != None {
		fmt.Fprintf(&b, "%%%-3d = ", in.ID)
	} else {
		b.WriteString("       ")
	}
	fmt.Fprintf(&b, "%-9s", in.Op)
	switch in.Op {
	case ConstS:
		fmt.Fprintf(&b, "%g", in.F)
	case ConstV:
		fmt.Fprintf(&b, "%v", in.Fs)
	case LoadS, LoadV:
		fmt.Fprintf(&b, "%s+%d", in.Array, in.Off)
	case StoreS, StoreV:
		fmt.Fprintf(&b, "%s+%d, %%%d", in.Array, in.Off, in.Args[0])
	case StoreVN:
		fmt.Fprintf(&b, "%s+%d, %%%d, n=%d", in.Array, in.Off, in.Args[0], in.N)
	case Shuffle:
		fmt.Fprintf(&b, "%%%d, %v", in.Args[0], in.Idx)
	case Select:
		fmt.Fprintf(&b, "%%%d, %%%d, %v", in.Args[0], in.Args[1], in.Idx)
	case Insert:
		fmt.Fprintf(&b, "%%%d[%d] <- %%%d", in.Args[0], in.Lane, in.Args[1])
	case ExtractLane:
		fmt.Fprintf(&b, "%%%d[%d]", in.Args[0], in.Lane)
	case CallS, CallV:
		fmt.Fprintf(&b, "%s(", in.Sym)
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%%%d", a)
		}
		b.WriteString(")")
	default:
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%%%d", a)
		}
	}
	return b.String()
}
