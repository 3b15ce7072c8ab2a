package codegen

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"diospyros/internal/vir"
)

// cFloat is v as a C float literal: %g, with ".0" when that is an integer.
func cFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	if !strings.ContainsAny(s, ".e") {
		s += ".0"
	}
	return s + "f"
}

// fmtToC is ToC as it was written with fmt. It survives here only as the
// oracle TestToCMatchesFmtRendering holds ToC's strconv rendering to.
func fmtToC(p *vir.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Generated by Diospyros-Go: kernel %s (vector width %d)\n", p.Name, p.Width)
	b.WriteString("// Target: Tensilica Fusion G3 class DSP (FG3-lite)\n")
	b.WriteString("#include <math.h>\n")
	b.WriteString("#include \"fg3_intrinsics.h\" // xb_vecMxf32, PDX_*_MXF32\n\n")
	var params []string
	for _, d := range p.Inputs {
		params = append(params, fmt.Sprintf("const float* %s", d.Name))
	}
	for _, d := range p.Outputs {
		params = append(params, fmt.Sprintf("float* %s", d.Name))
	}
	fmt.Fprintf(&b, "void kernel_%s(%s) {\n", p.Name, strings.Join(params, ", "))
	idxLit := func(idx []int) string {
		parts := make([]string, len(idx))
		for i, v := range idx {
			parts[i] = strconv.Itoa(v)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	valLit := func(vals []float64) string {
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = cFloat(v)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	regs := func(prefix string, ids []vir.ID) string {
		parts := make([]string, len(ids))
		for i, a := range ids {
			parts[i] = prefix + strconv.Itoa(int(a))
		}
		return strings.Join(parts, ", ")
	}
	binops := map[vir.Op]string{
		vir.AddS: "+", vir.SubS: "-", vir.MulS: "*", vir.DivS: "/",
		vir.AddV: "PDX_ADD_MXF32", vir.SubV: "PDX_SUB_MXF32",
		vir.MulV: "PDX_MUL_MXF32", vir.DivV: "PDX_DIV_MXF32",
	}
	selSeq := 0
	for _, in := range p.Instrs {
		switch in.Op {
		case vir.ConstS:
			fmt.Fprintf(&b, "    float s_%d = %s;\n", in.ID, cFloat(in.F))
		case vir.LoadS:
			fmt.Fprintf(&b, "    float s_%d = %s[%d];\n", in.ID, in.Array, in.Off)
		case vir.AddS, vir.SubS, vir.MulS, vir.DivS:
			fmt.Fprintf(&b, "    float s_%d = s_%d %s s_%d;\n", in.ID, in.Args[0], binops[in.Op], in.Args[1])
		case vir.NegS:
			fmt.Fprintf(&b, "    float s_%d = -s_%d;\n", in.ID, in.Args[0])
		case vir.SqrtS:
			fmt.Fprintf(&b, "    float s_%d = sqrtf(s_%d);\n", in.ID, in.Args[0])
		case vir.SgnS:
			fmt.Fprintf(&b, "    float s_%d = (s_%d < 0.0f) ? -1.0f : 1.0f;\n", in.ID, in.Args[0])
		case vir.CallS:
			fmt.Fprintf(&b, "    float s_%d = %s(%s);\n", in.ID, in.Sym, regs("s_", in.Args))
		case vir.ExtractLane:
			fmt.Fprintf(&b, "    float s_%d = PDX_EXTRACT_MXF32(v_%d, %d);\n", in.ID, in.Args[0], in.Lane)
		case vir.ConstV:
			fmt.Fprintf(&b, "    xb_vecMxf32 v_%d = PDX_CONST_MXF32(%s);\n", in.ID, valLit(in.Fs))
		case vir.LoadV:
			fmt.Fprintf(&b, "    xb_vecMxf32 v_%d = PDX_LAV_MXF32(%s + %d);\n", in.ID, in.Array, in.Off)
		case vir.Splat:
			fmt.Fprintf(&b, "    xb_vecMxf32 v_%d = PDX_REP_MXF32(s_%d);\n", in.ID, in.Args[0])
		case vir.Insert:
			fmt.Fprintf(&b, "    xb_vecMxf32 v_%d = PDX_INSERT_MXF32(v_%d, %d, s_%d);\n",
				in.ID, in.Args[0], in.Lane, in.Args[1])
		case vir.Shuffle:
			selSeq++
			fmt.Fprintf(&b, "    static const int shfl_%d[%d] = %s;\n", selSeq, p.Width, idxLit(in.Idx))
			fmt.Fprintf(&b, "    xb_vecMxf32 v_%d = PDX_SHFL_MXF32(v_%d, shfl_%d);\n",
				in.ID, in.Args[0], selSeq)
		case vir.Select:
			selSeq++
			fmt.Fprintf(&b, "    static const int sel_%d[%d] = %s;\n", selSeq, p.Width, idxLit(in.Idx))
			fmt.Fprintf(&b, "    xb_vecMxf32 v_%d = PDX_SEL_MXF32(v_%d, v_%d, sel_%d);\n",
				in.ID, in.Args[0], in.Args[1], selSeq)
		case vir.AddV, vir.SubV, vir.MulV, vir.DivV:
			fmt.Fprintf(&b, "    xb_vecMxf32 v_%d = %s(v_%d, v_%d);\n",
				in.ID, binops[in.Op], in.Args[0], in.Args[1])
		case vir.MacV:
			fmt.Fprintf(&b, "    xb_vecMxf32 v_%d = v_%d;\n", in.ID, in.Args[0])
			fmt.Fprintf(&b, "    PDX_MAC_MXF32(v_%d, v_%d, v_%d);\n", in.ID, in.Args[1], in.Args[2])
		case vir.NegV:
			fmt.Fprintf(&b, "    xb_vecMxf32 v_%d = PDX_NEG_MXF32(v_%d);\n", in.ID, in.Args[0])
		case vir.SqrtV:
			fmt.Fprintf(&b, "    xb_vecMxf32 v_%d = PDX_SQRT_MXF32(v_%d);\n", in.ID, in.Args[0])
		case vir.SgnV:
			fmt.Fprintf(&b, "    xb_vecMxf32 v_%d = PDX_SGN_MXF32(v_%d);\n", in.ID, in.Args[0])
		case vir.CallV:
			fmt.Fprintf(&b, "    xb_vecMxf32 v_%d = %s_v(%s);\n", in.ID, in.Sym, regs("v_", in.Args))
		case vir.StoreS:
			fmt.Fprintf(&b, "    %s[%d] = s_%d;\n", in.Array, in.Off, in.Args[0])
		case vir.StoreV:
			fmt.Fprintf(&b, "    PDX_SAV_MXF32(%s + %d, v_%d);\n", in.Array, in.Off, in.Args[0])
		case vir.StoreVN:
			fmt.Fprintf(&b, "    PDX_SAVN_MXF32(%s + %d, v_%d, %d);\n", in.Array, in.Off, in.Args[0], in.N)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// TestToCMatchesFmtRendering renders a program holding every IR op, and
// floats fmt and strconv could disagree on (signed zeros, infinities, NaN,
// exponents, the smallest subnormal), and requires ToC's text to be
// byte-identical to the fmt rendering's.
func TestToCMatchesFmtRendering(t *testing.T) {
	p := vir.NewProgram("every_op", 4, decls([]string{"a", "b"}, 8), decls([]string{"c", "d"}, 8))
	emit := p.Emit
	s0 := emit(vir.Instr{Op: vir.ConstS, F: math.Copysign(0, -1)})
	s1 := emit(vir.Instr{Op: vir.ConstS, F: 1e21})
	s2 := emit(vir.Instr{Op: vir.LoadS, Array: "a", Off: 7})
	for _, op := range []vir.Op{vir.AddS, vir.SubS, vir.MulS, vir.DivS} {
		emit(vir.Instr{Op: op, Args: []vir.ID{s0, s1}})
	}
	emit(vir.Instr{Op: vir.NegS, Args: []vir.ID{s2}})
	emit(vir.Instr{Op: vir.SqrtS, Args: []vir.ID{s2}})
	emit(vir.Instr{Op: vir.SgnS, Args: []vir.ID{s2}})
	emit(vir.Instr{Op: vir.CallS, Sym: "atan2", Args: []vir.ID{s1, s2}})
	v0 := emit(vir.Instr{Op: vir.ConstV, Fs: []float64{math.Inf(1), math.Inf(-1), math.NaN(), 5e-324}})
	v1 := emit(vir.Instr{Op: vir.LoadV, Array: "b", Off: 4})
	v2 := emit(vir.Instr{Op: vir.Splat, Args: []vir.ID{s2}})
	v3 := emit(vir.Instr{Op: vir.Insert, Args: []vir.ID{v0, s1}, Lane: 3})
	v4 := emit(vir.Instr{Op: vir.Shuffle, Args: []vir.ID{v1}, Idx: []int{3, 2, 1, 0}})
	v5 := emit(vir.Instr{Op: vir.Select, Args: []vir.ID{v4, v2}, Idx: []int{0, 5, 2, 7}})
	for _, op := range []vir.Op{vir.AddV, vir.SubV, vir.MulV, vir.DivV} {
		emit(vir.Instr{Op: op, Args: []vir.ID{v3, v5}})
	}
	mac := emit(vir.Instr{Op: vir.MacV, Args: []vir.ID{v1, v3, v5}})
	for _, op := range []vir.Op{vir.NegV, vir.SqrtV, vir.SgnV} {
		emit(vir.Instr{Op: op, Args: []vir.ID{mac}})
	}
	call := emit(vir.Instr{Op: vir.CallV, Sym: "hypot", Args: []vir.ID{mac, v5}})
	sc := emit(vir.Instr{Op: vir.ExtractLane, Args: []vir.ID{call}, Lane: 2})
	p.Emit(vir.Instr{Op: vir.StoreS, Args: []vir.ID{sc}, Array: "c", Off: 0})
	p.Emit(vir.Instr{Op: vir.StoreV, Args: []vir.ID{call}, Array: "c", Off: 4})
	p.Emit(vir.Instr{Op: vir.StoreVN, Args: []vir.ID{mac}, Array: "d", Off: 1, N: 3})

	seen := map[vir.Op]bool{}
	for _, in := range p.Instrs {
		seen[in.Op] = true
	}
	if len(seen) != int(vir.NumOps) {
		t.Fatalf("program covers %d of %d ops", len(seen), vir.NumOps)
	}
	if got, want := ToC(p), fmtToC(p); got != want {
		t.Fatalf("ToC differs from the fmt rendering:\n--- ToC\n%s--- fmt\n%s", got, want)
	}
}
