package expr

import (
	"fmt"
	"math"
)

// Env supplies concrete values for the free terminals of an expression:
// scalar variables, input memories (flattened), and user-defined functions.
type Env struct {
	Scalars map[string]float64
	Arrays  map[string][]float64
	// Funcs gives concrete semantics to user-defined (otherwise
	// uninterpreted) functions, used for differential testing.
	Funcs map[string]func([]float64) float64
}

// NewEnv returns an empty environment ready for population.
func NewEnv() *Env {
	return &Env{
		Scalars: map[string]float64{},
		Arrays:  map[string][]float64{},
		Funcs:   map[string]func([]float64) float64{},
	}
}

// Value is the result of evaluating a DSL expression: either a scalar or a
// flat list of scalars (for Vec/Concat/List/vector-arith nodes).
type Value struct {
	Scalar float64
	Elems  []float64
	IsVec  bool
}

// AsSlice returns the value as a flat slice regardless of kind.
func (v Value) AsSlice() []float64 {
	if v.IsVec {
		return v.Elems
	}
	return []float64{v.Scalar}
}

// Eval evaluates the expression under env. Vector operators apply
// elementwise; Concat and List flatten. It returns an error on malformed
// programs (e.g. mismatched vector lengths) or missing bindings. Shared
// subterm pointers (expression DAGs) are evaluated once.
func (e *Expr) Eval(env *Env) (Value, error) {
	var m Memo[Value]
	return m.Fold(e, func(e *Expr, args []Value) (Value, error) { return evalNode(env, e, args) })
}

// evalNode evaluates e given the values of its arguments.
func evalNode(env *Env, e *Expr, args []Value) (Value, error) {
	switch e.Op {
	case OpLit:
		return Value{Scalar: e.Lit}, nil
	case OpSym:
		v, ok := env.Scalars[e.Sym]
		if !ok {
			return Value{}, fmt.Errorf("expr: unbound scalar %q", e.Sym)
		}
		return Value{Scalar: v}, nil
	case OpGet:
		arr, ok := env.Arrays[e.Sym]
		if !ok {
			return Value{}, fmt.Errorf("expr: unbound array %q", e.Sym)
		}
		if e.Idx < 0 || e.Idx >= len(arr) {
			return Value{}, fmt.Errorf("expr: (Get %s %d) out of bounds (len %d)", e.Sym, e.Idx, len(arr))
		}
		return Value{Scalar: arr[e.Idx]}, nil

	case OpAdd, OpSub, OpMul, OpDiv:
		return Value{Scalar: scalarBinop(e.Op, args[0].Scalar, args[1].Scalar)}, nil

	case OpNeg, OpSqrt, OpSgn:
		return Value{Scalar: scalarUnop(e.Op, args[0].Scalar)}, nil

	case OpFunc:
		f, ok := env.Funcs[e.Sym]
		if !ok {
			return Value{}, fmt.Errorf("expr: no semantics for function %q", e.Sym)
		}
		xs := make([]float64, len(args))
		for i, a := range args {
			xs[i] = a.Scalar
		}
		return Value{Scalar: f(xs)}, nil

	case OpVec, OpList, OpConcat:
		var out []float64
		for _, a := range args {
			out = append(out, a.AsSlice()...)
		}
		return Value{Elems: out, IsVec: true}, nil

	case OpVecAdd, OpVecMinus, OpVecMul, OpVecDiv:
		op, _ := e.Op.ScalarEquivalent()
		as, bs := args[0].AsSlice(), args[1].AsSlice()
		if len(as) != len(bs) {
			return Value{}, fmt.Errorf("expr: %s length mismatch %d vs %d", e.Op, len(as), len(bs))
		}
		out := make([]float64, len(as))
		for i := range as {
			out[i] = scalarBinop(op, as[i], bs[i])
		}
		return Value{Elems: out, IsVec: true}, nil

	case OpVecMAC:
		as, bs, cs := args[0].AsSlice(), args[1].AsSlice(), args[2].AsSlice()
		if len(as) != len(bs) || len(bs) != len(cs) {
			return Value{}, fmt.Errorf("expr: VecMAC length mismatch %d/%d/%d", len(as), len(bs), len(cs))
		}
		out := make([]float64, len(as))
		for i := range as {
			out[i] = as[i] + bs[i]*cs[i]
		}
		return Value{Elems: out, IsVec: true}, nil

	case OpVecNeg, OpVecSqrt, OpVecSgn:
		op, _ := e.Op.ScalarEquivalent()
		as := args[0].AsSlice()
		out := make([]float64, len(as))
		for i := range as {
			out[i] = scalarUnop(op, as[i])
		}
		return Value{Elems: out, IsVec: true}, nil

	case OpVecFunc:
		f, ok := env.Funcs[e.Sym]
		if !ok {
			return Value{}, fmt.Errorf("expr: no semantics for function %q", e.Sym)
		}
		if len(args) == 0 {
			return Value{}, fmt.Errorf("expr: VecFunc %q has no arguments", e.Sym)
		}
		lanes := make([][]float64, len(args))
		for j, a := range args {
			if lanes[j] = a.AsSlice(); len(lanes[j]) != len(lanes[0]) {
				return Value{}, fmt.Errorf("expr: VecFunc %q length mismatch", e.Sym)
			}
		}
		out := make([]float64, len(lanes[0]))
		for i := range out {
			lane := make([]float64, len(lanes))
			for j, l := range lanes {
				lane[j] = l[i]
			}
			out[i] = f(lane)
		}
		return Value{Elems: out, IsVec: true}, nil
	}
	return Value{}, fmt.Errorf("expr: cannot evaluate op %s", e.Op)
}

func scalarBinop(op Op, a, b float64) float64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		return a / b
	}
	panic("expr: not a binop: " + op.String())
}

func scalarUnop(op Op, a float64) float64 {
	switch op {
	case OpNeg:
		return -a
	case OpSqrt:
		return math.Sqrt(a)
	case OpSgn:
		return Sign(a)
	}
	panic("expr: not a unop: " + op.String())
}

// Sign is the sgn function used by the DSL and the QR decomposition kernels:
// -1 for negative, +1 for zero or positive. (Householder reflections use the
// convention sgn(0)=1 so that the pivot never cancels.)
func Sign(a float64) float64 {
	if a < 0 {
		return -1
	}
	return 1
}
