// Package kernel provides the embedded specification API for scalar
// kernels, playing the role of the paper's Racket-embedded input DSL
// (§3.1). A kernel is written as ordinary Go code over symbolic scalar
// values; running it *is* symbolic evaluation, and the result is the lifted
// specification in the vector DSL: one expression tree per output element.
//
// Arbitrarily complex indexing and control flow are allowed as long as they
// are independent of the input data — which is guaranteed here by
// construction, because indices are plain Go ints while data values are
// opaque symbolic scalars.
package kernel

import (
	"fmt"

	"diospyros/internal/expr"
)

// ArrayDecl describes an input or output array. Cols is 1 for vectors;
// a scalar is declared as a 1×1 array.
type ArrayDecl struct {
	Name string
	Rows int
	Cols int
}

// Len returns the flattened element count.
func (d ArrayDecl) Len() int { return d.Rows * d.Cols }

// Lifted is a kernel specification after symbolic evaluation: a List term
// with one scalar expression per output element, plus shape metadata the
// backend needs for loads/stores.
type Lifted struct {
	Name    string
	Spec    *expr.Expr // (List e0 e1 ...)
	Inputs  []ArrayDecl
	Outputs []ArrayDecl
}

// OutputLen is the number of scalar outputs (before zero padding).
func (l *Lifted) OutputLen() int {
	n := 0
	for _, d := range l.Outputs {
		n += d.Len()
	}
	return n
}

// InputLen is the total number of scalar inputs.
func (l *Lifted) InputLen() int {
	n := 0
	for _, d := range l.Inputs {
		n += d.Len()
	}
	return n
}

// Builder accumulates a kernel during symbolic evaluation.
type Builder struct {
	name    string
	inputs  []ArrayDecl
	outputs []ArrayDecl
	inSet   map[string]bool
	outMats []*Matrix
}

// NewBuilder starts a kernel specification with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, inSet: map[string]bool{}}
}

// Scalar is a symbolic scalar value. Arithmetic helpers build DSL
// expressions with light peephole simplification so that the lifted spec
// matches the paper's examples (no `+ 0` noise from accumulator
// initialization).
type Scalar struct {
	e *expr.Expr
}

// Expr returns the underlying DSL expression.
func (s Scalar) Expr() *expr.Expr { return s.e }

// Const wraps a literal constant.
func Const(v float64) Scalar { return Scalar{expr.Lit(v)} }

// Matrix is a 2-D (or 1-D when Cols==1) symbolic array. Input matrices
// read as Get terms; output matrices are write-then-read accumulators.
type Matrix struct {
	decl  ArrayDecl
	input bool
	elems []Scalar // outputs only
}

// Decl returns the matrix's declaration.
func (m *Matrix) Decl() ArrayDecl { return m.decl }

// Input declares an input matrix.
func (b *Builder) Input(name string, rows, cols int) *Matrix {
	b.checkName(name)
	d := ArrayDecl{Name: name, Rows: rows, Cols: cols}
	b.inputs = append(b.inputs, d)
	return &Matrix{decl: d, input: true}
}

// InputVec declares an input vector (n×1).
func (b *Builder) InputVec(name string, n int) *Matrix { return b.Input(name, n, 1) }

// Output declares an output matrix, initialized to zeros (matching the
// make-vector initialization in the paper's input language).
func (b *Builder) Output(name string, rows, cols int) *Matrix {
	b.checkName(name)
	d := ArrayDecl{Name: name, Rows: rows, Cols: cols}
	b.outputs = append(b.outputs, d)
	m := &Matrix{decl: d, elems: make([]Scalar, d.Len())}
	for i := range m.elems {
		m.elems[i] = Const(0)
	}
	b.outMats = append(b.outMats, m)
	return m
}

// OutputVec declares an output vector (n×1).
func (b *Builder) OutputVec(name string, n int) *Matrix { return b.Output(name, n, 1) }

func (b *Builder) checkName(name string) {
	if b.inSet[name] {
		panic(fmt.Sprintf("kernel %s: duplicate array %q", b.name, name))
	}
	b.inSet[name] = true
}

// At reads element (i, j).
func (m *Matrix) At(i, j int) Scalar {
	idx := m.flat(i, j)
	if m.input {
		return Scalar{expr.Get(m.decl.Name, idx)}
	}
	return m.elems[idx]
}

// AtVec reads element i of a vector.
func (m *Matrix) AtVec(i int) Scalar { return m.At(i, 0) }

// Set writes element (i, j). Only output matrices are writable.
func (m *Matrix) Set(i, j int, v Scalar) {
	if m.input {
		panic(fmt.Sprintf("kernel: write to input array %q", m.decl.Name))
	}
	m.elems[m.flat(i, j)] = v
}

// SetVec writes element i of a vector.
func (m *Matrix) SetVec(i int, v Scalar) { m.Set(i, 0, v) }

func (m *Matrix) flat(i, j int) int {
	if i < 0 || i >= m.decl.Rows || j < 0 || j >= m.decl.Cols {
		panic(fmt.Sprintf("kernel: index (%d,%d) out of bounds for %s[%d][%d]",
			i, j, m.decl.Name, m.decl.Rows, m.decl.Cols))
	}
	return i*m.decl.Cols + j
}

// Lift finalizes the kernel: the specification is the List of all output
// elements, in declaration order, row-major.
func (b *Builder) Lift() *Lifted {
	var elems []*expr.Expr
	for _, m := range b.outMats {
		for _, s := range m.elems {
			elems = append(elems, s.e)
		}
	}
	if len(elems) == 0 {
		panic(fmt.Sprintf("kernel %s: no outputs declared", b.name))
	}
	return &Lifted{
		Name:    b.name,
		Spec:    expr.List(elems...),
		Inputs:  b.inputs,
		Outputs: b.outputs,
	}
}

// Arithmetic over symbolic scalars, with peephole simplification (constant
// folding and identity elimination). The simplifications are sound over ℝ,
// matching the rewrite system's semantics.

// Add returns a+b.
func Add(a, b Scalar) Scalar {
	switch {
	case a.e.IsZero():
		return b
	case b.e.IsZero():
		return a
	case a.e.Op == expr.OpLit && b.e.Op == expr.OpLit:
		return Const(a.e.Lit + b.e.Lit)
	}
	return Scalar{expr.Add(a.e, b.e)}
}

// Sub returns a−b.
func Sub(a, b Scalar) Scalar {
	switch {
	case b.e.IsZero():
		return a
	case a.e.Op == expr.OpLit && b.e.Op == expr.OpLit:
		return Const(a.e.Lit - b.e.Lit)
	}
	return Scalar{expr.Sub(a.e, b.e)}
}

// Mul returns a×b.
func Mul(a, b Scalar) Scalar {
	switch {
	case a.e.IsZero() || b.e.IsZero():
		return Const(0)
	case a.e.IsLit(1):
		return b
	case b.e.IsLit(1):
		return a
	case a.e.Op == expr.OpLit && b.e.Op == expr.OpLit:
		return Const(a.e.Lit * b.e.Lit)
	}
	return Scalar{expr.Mul(a.e, b.e)}
}

// DivS returns a÷b.
func DivS(a, b Scalar) Scalar {
	if b.e.IsLit(1) {
		return a
	}
	if a.e.Op == expr.OpLit && b.e.Op == expr.OpLit && b.e.Lit != 0 {
		return Const(a.e.Lit / b.e.Lit)
	}
	return Scalar{expr.Div(a.e, b.e)}
}

// NegS returns −a.
func NegS(a Scalar) Scalar {
	if a.e.Op == expr.OpLit {
		return Const(-a.e.Lit)
	}
	return Scalar{expr.Neg(a.e)}
}

// SqrtS returns √a.
func SqrtS(a Scalar) Scalar {
	if a.e.Op == expr.OpLit && a.e.Lit >= 0 {
		v := a.e.Lit
		if v == 0 || v == 1 {
			return Const(v)
		}
	}
	return Scalar{expr.Sqrt(a.e)}
}

// SgnS returns sgn(a) (−1 for negative, +1 otherwise).
func SgnS(a Scalar) Scalar {
	if a.e.Op == expr.OpLit {
		return Const(expr.Sign(a.e.Lit))
	}
	return Scalar{expr.Sgn(a.e)}
}

// Call applies an uninterpreted user-defined function (§3.1).
func Call(name string, args ...Scalar) Scalar {
	es := make([]*expr.Expr, len(args))
	for i, a := range args {
		es[i] = a.e
	}
	return Scalar{expr.Func(name, es...)}
}
