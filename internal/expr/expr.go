// Package expr defines Diospyros's vector DSL: the abstract language that
// scalar kernels are lifted into and that the equality-saturation engine
// rewrites (Figure 3 of the paper).
//
// A top-level program is a (possibly singleton) List of outputs. Expressions
// operate over both scalars and vectors:
//
//	prog   ::= (List expr+) | expr
//	scalar ::= lit | sym | (Get arr i)
//	        | (+ s s) | (- s s) | (* s s) | (/ s s)
//	        | (neg s) | (sqrt s) | (sgn s) | (func f s*)
//	vector ::= (Vec scalar+) | (Concat v v)
//	        | (VecAdd v v) | (VecMinus v v) | (VecMul v v) | (VecDiv v v)
//	        | (VecMAC v v v) | (VecNeg v) | (VecSqrt v) | (VecSgn v)
//	        | (VecFunc f v*)
//
// Get is flattened 1-D access into a named input memory (2-D arrays are
// flattened row-major before lifting).
package expr

import (
	"fmt"
	"math"
	"strings"
)

// Op identifies a DSL operator.
type Op uint8

// DSL operators. Scalar operators come first, then vector operators.
const (
	// Terminals.
	OpLit Op = iota // floating-point literal (payload Lit)
	OpSym           // free scalar variable (payload Sym)
	OpGet           // element of a named input memory (payload Sym, Idx)

	// Scalar arithmetic.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpNeg
	OpSqrt
	OpSgn
	OpFunc // uninterpreted user-defined scalar function (payload Sym)

	// Vector constructors and data movement.
	OpVec    // machine-width vector of scalar lanes
	OpConcat // concatenation of two vector-valued expressions

	// Vector arithmetic.
	OpVecAdd
	OpVecMinus
	OpVecMul
	OpVecDiv
	OpVecMAC // fused multiply–accumulate: acc + b*c, elementwise
	OpVecNeg
	OpVecSqrt
	OpVecSgn
	OpVecFunc // uninterpreted vector function (payload Sym)

	// Top-level output list of scalar elements.
	OpList

	// NumOps is the number of distinct operators (for table sizing).
	NumOps
)

var opNames = [NumOps]string{
	OpLit:      "lit",
	OpSym:      "sym",
	OpGet:      "Get",
	OpAdd:      "+",
	OpSub:      "-",
	OpMul:      "*",
	OpDiv:      "/",
	OpNeg:      "neg",
	OpSqrt:     "sqrt",
	OpSgn:      "sgn",
	OpFunc:     "func",
	OpVec:      "Vec",
	OpConcat:   "Concat",
	OpVecAdd:   "VecAdd",
	OpVecMinus: "VecMinus",
	OpVecMul:   "VecMul",
	OpVecDiv:   "VecDiv",
	OpVecMAC:   "VecMAC",
	OpVecNeg:   "VecNeg",
	OpVecSqrt:  "VecSqrt",
	OpVecSgn:   "VecSgn",
	OpVecFunc:  "VecFunc",
	OpList:     "List",
}

// String returns the operator's s-expression head symbol.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsVector reports whether the operator produces a vector or list value.
func (o Op) IsVector() bool {
	switch o {
	case OpVec, OpConcat, OpVecAdd, OpVecMinus, OpVecMul, OpVecDiv,
		OpVecMAC, OpVecNeg, OpVecSqrt, OpVecSgn, OpVecFunc, OpList:
		return true
	}
	return false
}

// IsScalarArith reports whether the operator is a scalar arithmetic operator
// (excluding terminals).
func (o Op) IsScalarArith() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpDiv, OpNeg, OpSqrt, OpSgn, OpFunc:
		return true
	}
	return false
}

// VectorEquivalent returns the vector operator corresponding to a scalar
// arithmetic operator, and whether one exists.
func (o Op) VectorEquivalent() (Op, bool) {
	switch o {
	case OpAdd:
		return OpVecAdd, true
	case OpSub:
		return OpVecMinus, true
	case OpMul:
		return OpVecMul, true
	case OpDiv:
		return OpVecDiv, true
	case OpNeg:
		return OpVecNeg, true
	case OpSqrt:
		return OpVecSqrt, true
	case OpSgn:
		return OpVecSgn, true
	case OpFunc:
		return OpVecFunc, true
	}
	return 0, false
}

// ScalarEquivalent is the inverse of VectorEquivalent.
func (o Op) ScalarEquivalent() (Op, bool) {
	switch o {
	case OpVecAdd:
		return OpAdd, true
	case OpVecMinus:
		return OpSub, true
	case OpVecMul:
		return OpMul, true
	case OpVecDiv:
		return OpDiv, true
	case OpVecNeg:
		return OpNeg, true
	case OpVecSqrt:
		return OpSqrt, true
	case OpVecSgn:
		return OpSgn, true
	case OpVecFunc:
		return OpFunc, true
	}
	return 0, false
}

// Expr is a node in a DSL expression tree. Expressions are immutable by
// convention: helpers never mutate their arguments.
type Expr struct {
	Op   Op
	Lit  float64 // payload for OpLit
	Sym  string  // payload for OpSym, OpGet (array name), OpFunc, OpVecFunc
	Idx  int     // payload for OpGet (flattened element index)
	Args []*Expr
}

// Lit constructs a literal.
func Lit(v float64) *Expr { return &Expr{Op: OpLit, Lit: v} }

// Sym constructs a free scalar variable.
func Sym(name string) *Expr { return &Expr{Op: OpSym, Sym: name} }

// Get constructs an element access into named input memory arr at flat index i.
func Get(arr string, i int) *Expr { return &Expr{Op: OpGet, Sym: arr, Idx: i} }

// Add constructs a + b.
func Add(a, b *Expr) *Expr { return &Expr{Op: OpAdd, Args: []*Expr{a, b}} }

// Sub constructs a - b.
func Sub(a, b *Expr) *Expr { return &Expr{Op: OpSub, Args: []*Expr{a, b}} }

// Mul constructs a * b.
func Mul(a, b *Expr) *Expr { return &Expr{Op: OpMul, Args: []*Expr{a, b}} }

// Div constructs a / b.
func Div(a, b *Expr) *Expr { return &Expr{Op: OpDiv, Args: []*Expr{a, b}} }

// Neg constructs -a.
func Neg(a *Expr) *Expr { return &Expr{Op: OpNeg, Args: []*Expr{a}} }

// Sqrt constructs the square root of a.
func Sqrt(a *Expr) *Expr { return &Expr{Op: OpSqrt, Args: []*Expr{a}} }

// Sgn constructs the sign of a (see Sign).
func Sgn(a *Expr) *Expr { return &Expr{Op: OpSgn, Args: []*Expr{a}} }

// Func constructs a call to an uninterpreted scalar function.
func Func(name string, args ...*Expr) *Expr {
	return &Expr{Op: OpFunc, Sym: name, Args: args}
}

// Vec constructs a vector from scalar lanes.
func Vec(lanes ...*Expr) *Expr { return &Expr{Op: OpVec, Args: lanes} }

// Concat concatenates two vector-valued expressions.
func Concat(a, b *Expr) *Expr { return &Expr{Op: OpConcat, Args: []*Expr{a, b}} }

// VecAdd constructs the elementwise sum a + b.
func VecAdd(a, b *Expr) *Expr { return &Expr{Op: OpVecAdd, Args: []*Expr{a, b}} }

// VecMinus constructs the elementwise difference a - b.
func VecMinus(a, b *Expr) *Expr { return &Expr{Op: OpVecMinus, Args: []*Expr{a, b}} }

// VecMul constructs the elementwise product a * b.
func VecMul(a, b *Expr) *Expr { return &Expr{Op: OpVecMul, Args: []*Expr{a, b}} }

// VecDiv constructs the elementwise quotient a / b.
func VecDiv(a, b *Expr) *Expr { return &Expr{Op: OpVecDiv, Args: []*Expr{a, b}} }

// VecMAC constructs the elementwise multiply-accumulate acc + b*c.
func VecMAC(acc, b, c *Expr) *Expr { return &Expr{Op: OpVecMAC, Args: []*Expr{acc, b, c}} }

// VecNeg constructs the elementwise negation of a.
func VecNeg(a *Expr) *Expr { return &Expr{Op: OpVecNeg, Args: []*Expr{a}} }

// VecSqrt constructs the elementwise square root of a.
func VecSqrt(a *Expr) *Expr { return &Expr{Op: OpVecSqrt, Args: []*Expr{a}} }

// VecSgn constructs the elementwise sign of a.
func VecSgn(a *Expr) *Expr { return &Expr{Op: OpVecSgn, Args: []*Expr{a}} }

// VecFunc constructs a call to an uninterpreted vector function.
func VecFunc(name string, args ...*Expr) *Expr {
	return &Expr{Op: OpVecFunc, Sym: name, Args: args}
}

// List constructs a top-level output list of scalar elements.
func List(elems ...*Expr) *Expr { return &Expr{Op: OpList, Args: elems} }

// IsZero reports whether e is the literal 0.
func (e *Expr) IsZero() bool { return e != nil && e.Op == OpLit && e.Lit == 0 }

// IsLit reports whether e is a literal with the given value.
func (e *Expr) IsLit(v float64) bool { return e != nil && e.Op == OpLit && e.Lit == v }

// Equal reports structural equality of two expressions.
func (e *Expr) Equal(o *Expr) bool {
	if e == o {
		return true
	}
	if e == nil || o == nil {
		return false
	}
	if e.Op != o.Op || e.Sym != o.Sym || e.Idx != o.Idx || len(e.Args) != len(o.Args) {
		return false
	}
	if e.Op == OpLit && !sameFloat(e.Lit, o.Lit) {
		return false
	}
	for i := range e.Args {
		if !e.Args[i].Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// Size returns the number of distinct nodes of the DAG: a node shared by
// several parents counts once.
func (e *Expr) Size() int {
	if e == nil {
		return 0
	}
	var m Memo[struct{}]
	m.Fold(e, func(*Expr, []struct{}) (struct{}, error) { return struct{}{}, nil })
	return m.Len()
}

// Memo folds expressions bottom-up, once per distinct node: it is the one
// walk that respects a DAG's sharing, so a tree exponentially larger than
// its DAG costs only the DAG. The zero value is ready to use. A Memo keeps
// its values and its argument stack between folds, so values carry from
// one Fold to the next until Reset; it is not safe for concurrent use.
type Memo[T any] struct {
	vals  map[*Expr]T
	stack []T // argument values of the nodes being folded
}

// Fold returns f's value for e, which must not be nil. It calls f once
// for each distinct pointer not already folded, arguments before the node
// and left to right in a first-occurrence post-order, passing the
// arguments' values in order. args is only valid during the call. An
// error from f stops the fold and is returned; the failing node and its
// ancestors get no value.
func (m *Memo[T]) Fold(e *Expr, f func(e *Expr, args []T) (T, error)) (T, error) {
	if v, ok := m.vals[e]; ok {
		return v, nil
	}
	if m.vals == nil {
		m.vals = map[*Expr]T{}
	}
	base := len(m.stack)
	for _, a := range e.Args {
		v, err := m.Fold(a, f)
		if err != nil {
			m.stack = m.stack[:base]
			return v, err
		}
		m.stack = append(m.stack, v)
	}
	v, err := f(e, m.stack[base:])
	m.stack = m.stack[:base]
	if err == nil {
		m.vals[e] = v
	}
	return v, err
}

// Len returns the number of nodes folded since the last Reset.
func (m *Memo[T]) Len() int { return len(m.vals) }

// Reset forgets every folded value, keeping the memory for the next fold.
func (m *Memo[T]) Reset() {
	clear(m.vals)
	m.stack = m.stack[:0]
}

// String renders the expression in s-expression syntax; Parse inverts it.
func (e *Expr) String() string {
	var b strings.Builder
	e.write(&b)
	return b.String()
}

func (e *Expr) write(b *strings.Builder) {
	if e == nil {
		b.WriteString("<nil>")
		return
	}
	switch e.Op {
	case OpLit:
		fmt.Fprintf(b, "%g", e.Lit)
	case OpSym:
		b.WriteString(e.Sym)
	case OpGet:
		fmt.Fprintf(b, "(Get %s %d)", e.Sym, e.Idx)
	case OpFunc, OpVecFunc:
		b.WriteByte('(')
		b.WriteString(e.Op.String())
		b.WriteByte(' ')
		b.WriteString(e.Sym)
		for _, a := range e.Args {
			b.WriteByte(' ')
			a.write(b)
		}
		b.WriteByte(')')
	default:
		b.WriteByte('(')
		b.WriteString(e.Op.String())
		for _, a := range e.Args {
			b.WriteByte(' ')
			a.write(b)
		}
		b.WriteByte(')')
	}
}

// OutputLen returns the number of scalar elements a vector-valued expression
// produces, or 1 for a scalar expression.
func (e *Expr) OutputLen() int {
	switch e.Op {
	case OpList:
		n := 0
		for _, a := range e.Args {
			n += a.OutputLen()
		}
		return n
	case OpVec:
		return len(e.Args)
	case OpConcat:
		return e.Args[0].OutputLen() + e.Args[1].OutputLen()
	case OpVecAdd, OpVecMinus, OpVecMul, OpVecDiv, OpVecNeg, OpVecSqrt,
		OpVecSgn, OpVecMAC, OpVecFunc:
		return e.Args[0].OutputLen()
	default:
		return 1
	}
}
