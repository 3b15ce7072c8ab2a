package frontend

import (
	"context"
	"fmt"
	"math"

	"diospyros/internal/expr"
	"diospyros/internal/kernel"
)

// Lift symbolically evaluates a kernel into the vector DSL (paper §3.1):
// integer values (indices, bounds, conditions) are computed concretely,
// while float data values remain symbolic. Control flow must therefore be
// input-independent; a condition that inspects float data is rejected with
// an explanatory error.
func Lift(k *Kernel) (*kernel.Lifted, error) {
	return LiftContext(context.Background(), k)
}

// LiftContext is Lift under a context: the evaluator polls ctx as its
// loops run and stops with the context's cause once ctx is done.
func LiftContext(ctx context.Context, k *Kernel) (*kernel.Lifted, error) {
	if err := CheckShapes(k); err != nil {
		return nil, err
	}
	dom := &symbolic{}
	l := &kernel.Lifted{Name: k.Name}
	arrays := make([]Array[*expr.Expr], 0, len(k.Params)+len(k.Outs))
	for _, p := range k.Params {
		l.Inputs = append(l.Inputs, decl(p))
		gets := &slice[*expr.Expr]{dims: p.Dims, vals: make([]*expr.Expr, p.Len())}
		for i := range gets.vals {
			gets.vals[i] = expr.Get(p.Name, i)
		}
		arrays = append(arrays, gets)
	}
	outs := make([]*slice[*expr.Expr], len(k.Outs))
	for i, p := range k.Outs {
		l.Outputs = append(l.Outputs, decl(p))
		outs[i] = zeros[*expr.Expr](dom, p.Dims)
		arrays = append(arrays, outs[i])
	}
	if err := Run[*expr.Expr](ctx, k, dom, arrays); err != nil {
		return nil, err
	}
	elems := make([]*expr.Expr, 0, l.OutputLen())
	for _, o := range outs {
		elems = append(elems, o.vals...)
	}
	l.Spec = expr.List(elems...)
	return l, nil
}

// decl is the shape of parameter p: a vector is one column.
func decl(p Param) kernel.ArrayDecl {
	if len(p.Dims) == 1 {
		return kernel.ArrayDecl{Name: p.Name, Rows: p.Dims[0], Cols: 1}
	}
	return kernel.ArrayDecl{Name: p.Name, Rows: p.Dims[0], Cols: p.Dims[1]}
}

// MaxSpecNodes bounds the DSL nodes lifting one kernel may build (one per
// float arithmetic operation, negation or call), so a loop that stays
// inside maxWork cannot still build a specification too large to
// compile. The largest count over the sources in testdata, examples and
// the benchmark suite, 2DConv 16x16 4x4 and MatMul 16x16 16x16, is 8,192.
// kcc's fixed-size mode bounds the instructions it emits by the same
// number.
const MaxSpecNodes = 100_000

// ErrDataDependent wraps errors caused by control flow over float data.
type ErrDataDependent struct{ Pos Pos }

// Error says where the kernel branches on float data.
func (e *ErrDataDependent) Error() string {
	return fmt.Sprintf("%s: data-dependent control flow cannot be lifted (conditions must be over integer index values)", e.Pos)
}

// symbolic is Lift's domain: float values are DSL expressions, built with
// light peephole simplification so that the spec matches the paper's
// examples, with no `+ 0` noise from accumulators that start at zero. It is
// the one place scalar identities are applied; the e-graph's rules keep only
// the rewrites that need a search. The folds are:
//
//   - 0+x, x+0, x-0, 1·x, x·1 and x/1 are x, and -(-x) is x;
//   - 0·x and x·0 are 0, and x-x is 0 when both operands are one value
//     (one *expr.Expr: Lift shares one Get per input element, and a
//     variable read returns the value stored);
//   - two literals fold under + - · /, a literal under negation and sgn,
//     and a non-negative literal under sqrt, but only to a finite result:
//     1/0, 0/0 and 1e308·10 stay terms, so the spec holds no Inf or NaN.
//
// The folds and sgn follow ℝ, the rewrite system's semantics, not IEEE:
// 0·x and x-x fold to 0 whatever x is, and sgn of NaN is +1. A kernel whose
// values become non-finite is therefore outside the validated semantics, and
// FuzzLift compares the spec with Interp on finite runs only. An identity
// returns its operand itself and a fold a fresh literal, so sharing in the
// spec is exactly the sharing of the kernel's values.
type symbolic struct {
	nodes int // DSL nodes built so far, against MaxSpecNodes
}

func (*symbolic) Num(v float64) *expr.Expr { return expr.Lit(v) }

func (s *symbolic) Local(_ string, dims []int) Array[*expr.Expr] {
	return zeros[*expr.Expr](s, dims)
}

// node counts one DSL node built for the expression at pos.
func (s *symbolic) node(pos Pos) error {
	if s.nodes++; s.nodes > MaxSpecNodes {
		return errf(pos, "specification exceeded the budget of %d nodes", MaxSpecNodes)
	}
	return nil
}

func (s *symbolic) Arith(op string, l, r *expr.Expr, pos Pos) (*expr.Expr, error) {
	if err := s.node(pos); err != nil {
		return nil, err
	}
	switch op {
	case "+":
		return add(l, r), nil
	case "-":
		return sub(l, r), nil
	case "*":
		return mul(l, r), nil
	}
	return div(l, r), nil
}

func (s *symbolic) Neg(x *expr.Expr, pos Pos) (*expr.Expr, error) {
	if err := s.node(pos); err != nil {
		return nil, err
	}
	switch x.Op {
	case expr.OpLit:
		return expr.Lit(-x.Lit), nil
	case expr.OpNeg:
		return x.Args[0], nil
	}
	return expr.Neg(x), nil
}

func (s *symbolic) Call(name string, args []*expr.Expr, pos Pos) (*expr.Expr, error) {
	if err := s.node(pos); err != nil {
		return nil, err
	}
	switch name {
	case "sqrt":
		if x := args[0]; x.Op == expr.OpLit && x.Lit >= 0 {
			return expr.Lit(math.Sqrt(x.Lit)), nil
		}
		return expr.Sqrt(args[0]), nil
	case "abs":
		// |x| = x · sgn(x) in the DSL (sgn ∈ {−1, +1}).
		return mul(args[0], sgn(args[0])), nil
	case "sgn":
		return sgn(args[0]), nil
	}
	return expr.Func(name, args...), nil
}

// Compare rejects every float comparison: its outcome depends on the
// input data, which lifting keeps symbolic.
func (*symbolic) Compare(_ string, _, _ *expr.Expr, pos Pos) (bool, error) {
	return false, &ErrDataDependent{Pos: pos}
}

// add, sub, mul and div build a binary term, folding as symbolic says.

// lits reports whether a and b are both literals.
func lits(a, b *expr.Expr) bool { return a.Op == expr.OpLit && b.Op == expr.OpLit }

// isFinite reports whether v is neither infinite nor NaN: a literal pair
// folds only to a finite value.
func isFinite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

func add(a, b *expr.Expr) *expr.Expr {
	switch {
	case a.IsZero():
		return b
	case b.IsZero():
		return a
	case lits(a, b) && isFinite(a.Lit+b.Lit):
		return expr.Lit(a.Lit + b.Lit)
	}
	return expr.Add(a, b)
}

func sub(a, b *expr.Expr) *expr.Expr {
	switch {
	case b.IsZero():
		return a
	case a == b:
		return expr.Lit(0)
	case lits(a, b) && isFinite(a.Lit-b.Lit):
		return expr.Lit(a.Lit - b.Lit)
	}
	return expr.Sub(a, b)
}

func mul(a, b *expr.Expr) *expr.Expr {
	switch {
	case a.IsZero() || b.IsZero():
		return expr.Lit(0)
	case a.IsLit(1):
		return b
	case b.IsLit(1):
		return a
	case lits(a, b) && isFinite(a.Lit*b.Lit):
		return expr.Lit(a.Lit * b.Lit)
	}
	return expr.Mul(a, b)
}

func div(a, b *expr.Expr) *expr.Expr {
	switch {
	case b.IsLit(1):
		return a
	case lits(a, b) && isFinite(a.Lit/b.Lit):
		return expr.Lit(a.Lit / b.Lit)
	}
	return expr.Div(a, b)
}

// sgn builds sgn(a), folding a literal to −1 if negative and +1 otherwise.
func sgn(a *expr.Expr) *expr.Expr {
	if a.Op == expr.OpLit {
		return expr.Lit(expr.Sign(a.Lit))
	}
	return expr.Sgn(a)
}
