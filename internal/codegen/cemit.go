package codegen

import (
	"bytes"
	"strconv"
	"strings"

	"diospyros/internal/vir"
)

// ToC renders the IR program as C++ with Fusion-G3-style vector intrinsics
// (PDX_*_MXF32 names as in the paper's examples). This is the artifact the
// real Diospyros hands to the Tensilica xt-xcc toolchain; here it documents
// exactly what the simulator executes, with one intrinsic call per IR
// instruction. Scalar fallback code is plain C float arithmetic.
//
// The text is rendered twice: a first pass only adds up its length, and
// the second appends it to a buffer grown once to exactly that length.
func ToC(p *vir.Program) string {
	t := cText{counting: true}
	t.render(p)
	t.counting = false
	t.b.Grow(t.n)
	t.render(p)
	return t.b.String()
}

// cText is where ToC renders: numbers are formatted with strconv into a
// scratch array, and a counting pass writes nothing.
type cText struct {
	b        strings.Builder
	counting bool
	n        int // the length a counting pass has seen
	num      [32]byte
}

func (t *cText) bytes(s []byte) {
	if t.counting {
		t.n += len(s)
	} else {
		t.b.Write(s)
	}
}

func (t *cText) str(s string) {
	if t.counting {
		t.n += len(s)
	} else {
		t.b.WriteString(s)
	}
}

func (t *cText) int(v int) { t.bytes(strconv.AppendInt(t.num[:0], int64(v), 10)) }

// float writes v as a C float literal: fmt's %g text, then ".0" when that
// has no '.' or exponent (C reads 1f as an integer with a bad suffix), then
// f.
func (t *cText) float(v float64) {
	s := strconv.AppendFloat(t.num[:0], v, 'g', -1, 64)
	if bytes.IndexAny(s, ".e") < 0 {
		s = append(s, ".0"...)
	}
	t.bytes(append(s, 'f'))
}

// reg writes the C variable of value id: s_<id> for a scalar (kind 's'),
// v_<id> for a vector (kind 'v').
func (t *cText) reg(kind byte, id vir.ID) {
	t.bytes(append(t.num[:0], kind, '_'))
	t.int(int(id))
}

// def starts the line defining value id.
func (t *cText) def(kind byte, id vir.ID) {
	if kind == 's' {
		t.str("    float ")
	} else {
		t.str("    xb_vecMxf32 ")
	}
	t.reg(kind, id)
	t.str(" = ")
}

// regs writes the variables of ids, comma-separated.
func (t *cText) regs(kind byte, ids []vir.ID) {
	for i, a := range ids {
		if i > 0 {
			t.str(", ")
		}
		t.reg(kind, a)
	}
}

// addr writes "<array> + <off>".
func (t *cText) addr(array string, off int) {
	t.str(array)
	t.str(" + ")
	t.int(off)
}

// table writes the static index table a shuffle or select reads.
func (t *cText) table(name string, seq, width int, idx []int) {
	t.str("    static const int ")
	t.str(name)
	t.int(seq)
	t.str("[")
	t.int(width)
	t.str("] = {")
	for i, v := range idx {
		if i > 0 {
			t.str(", ")
		}
		t.int(v)
	}
	t.str("};\n")
}

func (t *cText) render(p *vir.Program) {
	t.str("// Generated by Diospyros-Go: kernel ")
	t.str(p.Name)
	t.str(" (vector width ")
	t.int(p.Width)
	t.str(")\n// Target: Tensilica Fusion G3 class DSP (FG3-lite)\n" +
		"#include <math.h>\n" +
		"#include \"fg3_intrinsics.h\" // xb_vecMxf32, PDX_*_MXF32\n\n")

	// Signature: const float* per input, float* per output.
	t.str("void kernel_")
	t.str(p.Name)
	t.str("(")
	sep := ""
	for _, d := range p.Inputs {
		t.str(sep)
		t.str("const float* ")
		t.str(d.Name)
		sep = ", "
	}
	for _, d := range p.Outputs {
		t.str(sep)
		t.str("float* ")
		t.str(d.Name)
		sep = ", "
	}
	t.str(") {\n")

	selSeq := 0
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case vir.ConstS:
			t.def('s', in.ID)
			t.float(in.F)
			t.str(";\n")
		case vir.LoadS:
			t.def('s', in.ID)
			t.str(in.Array)
			t.str("[")
			t.int(in.Off)
			t.str("];\n")
		case vir.AddS, vir.SubS, vir.MulS, vir.DivS:
			t.def('s', in.ID)
			t.reg('s', in.Args[0])
			t.str(" ")
			t.str(cOps[in.Op])
			t.str(" ")
			t.reg('s', in.Args[1])
			t.str(";\n")
		case vir.NegS:
			t.def('s', in.ID)
			t.str("-")
			t.reg('s', in.Args[0])
			t.str(";\n")
		case vir.SqrtS:
			t.def('s', in.ID)
			t.str("sqrtf(")
			t.reg('s', in.Args[0])
			t.str(");\n")
		case vir.SgnS:
			t.def('s', in.ID)
			t.str("(")
			t.reg('s', in.Args[0])
			t.str(" < 0.0f) ? -1.0f : 1.0f;\n")
		case vir.CallS:
			t.def('s', in.ID)
			t.str(in.Sym)
			t.str("(")
			t.regs('s', in.Args)
			t.str(");\n")
		case vir.ExtractLane:
			t.def('s', in.ID)
			t.str("PDX_EXTRACT_MXF32(")
			t.reg('v', in.Args[0])
			t.str(", ")
			t.int(in.Lane)
			t.str(");\n")

		case vir.ConstV:
			t.def('v', in.ID)
			t.str("PDX_CONST_MXF32({")
			for i, v := range in.Fs {
				if i > 0 {
					t.str(", ")
				}
				t.float(v)
			}
			t.str("});\n")
		case vir.LoadV:
			t.def('v', in.ID)
			t.str("PDX_LAV_MXF32(")
			t.addr(in.Array, in.Off)
			t.str(");\n")
		case vir.Splat:
			t.def('v', in.ID)
			t.str("PDX_REP_MXF32(")
			t.reg('s', in.Args[0])
			t.str(");\n")
		case vir.Insert:
			t.def('v', in.ID)
			t.str("PDX_INSERT_MXF32(")
			t.reg('v', in.Args[0])
			t.str(", ")
			t.int(in.Lane)
			t.str(", ")
			t.reg('s', in.Args[1])
			t.str(");\n")
		case vir.Shuffle:
			selSeq++
			t.table("shfl_", selSeq, p.Width, in.Idx)
			t.def('v', in.ID)
			t.str("PDX_SHFL_MXF32(")
			t.reg('v', in.Args[0])
			t.str(", shfl_")
			t.int(selSeq)
			t.str(");\n")
		case vir.Select:
			selSeq++
			t.table("sel_", selSeq, p.Width, in.Idx)
			t.def('v', in.ID)
			t.str("PDX_SEL_MXF32(")
			t.regs('v', in.Args[:2])
			t.str(", sel_")
			t.int(selSeq)
			t.str(");\n")
		case vir.AddV, vir.SubV, vir.MulV, vir.DivV, vir.NegV, vir.SqrtV, vir.SgnV:
			t.def('v', in.ID)
			t.str(cOps[in.Op])
			t.str("(")
			t.regs('v', in.Args)
			t.str(");\n")
		case vir.MacV:
			t.def('v', in.ID)
			t.reg('v', in.Args[0])
			t.str(";\n    PDX_MAC_MXF32(")
			t.reg('v', in.ID)
			t.str(", ")
			t.regs('v', in.Args[1:3])
			t.str(");\n")
		case vir.CallV:
			t.def('v', in.ID)
			t.str(in.Sym)
			t.str("_v(")
			t.regs('v', in.Args)
			t.str(");\n")

		case vir.StoreS:
			t.str("    ")
			t.str(in.Array)
			t.str("[")
			t.int(in.Off)
			t.str("] = ")
			t.reg('s', in.Args[0])
			t.str(";\n")
		case vir.StoreV:
			t.str("    PDX_SAV_MXF32(")
			t.addr(in.Array, in.Off)
			t.str(", ")
			t.reg('v', in.Args[0])
			t.str(");\n")
		case vir.StoreVN:
			t.str("    PDX_SAVN_MXF32(")
			t.addr(in.Array, in.Off)
			t.str(", ")
			t.reg('v', in.Args[0])
			t.str(", ")
			t.int(in.N)
			t.str(");\n")
		}
	}
	t.str("}\n")
}

// cOps spells each arithmetic IR op in C: an infix operator for
// scalars, an intrinsic for vectors.
var cOps = [vir.NumOps]string{
	vir.AddS: "+", vir.SubS: "-", vir.MulS: "*", vir.DivS: "/",
	vir.AddV: "PDX_ADD_MXF32", vir.SubV: "PDX_SUB_MXF32",
	vir.MulV: "PDX_MUL_MXF32", vir.DivV: "PDX_DIV_MXF32",
	vir.NegV: "PDX_NEG_MXF32", vir.SqrtV: "PDX_SQRT_MXF32", vir.SgnV: "PDX_SGN_MXF32",
}
