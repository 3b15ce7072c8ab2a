package frontend

import (
	"context"
	"fmt"

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
	b := kernel.NewBuilder(k.Name)
	arrays := make(map[string]*array[kernel.Scalar], len(k.Params)+len(k.Outs))
	for _, p := range k.Params {
		rows, cols := dims2(p.Dims)
		arrays[p.Name] = elements(b.Input(p.Name, rows, cols), p.Dims)
	}
	outs := make([]*kernel.Matrix, len(k.Outs))
	for i, p := range k.Outs {
		rows, cols := dims2(p.Dims)
		outs[i] = b.Output(p.Name, rows, cols)
		arrays[p.Name] = elements(outs[i], p.Dims)
	}
	e := &evaluator[kernel.Scalar]{dom: &symbolic{}, ctx: ctx}
	if err := e.run(k, arrays); err != nil {
		return nil, err
	}
	for i, p := range k.Outs {
		cols := outs[i].Decl().Cols
		for j, v := range arrays[p.Name].vals {
			outs[i].Set(j/cols, j%cols, v)
		}
	}
	return b.Lift(), nil
}

// elements binds a builder matrix as a flat array of its current values:
// one Get term per element of an input, zeros for an output.
func elements(m *kernel.Matrix, dims []int) *array[kernel.Scalar] {
	cols := m.Decl().Cols
	vals := make([]kernel.Scalar, m.Decl().Len())
	for i := range vals {
		vals[i] = m.At(i/cols, i%cols)
	}
	return &array[kernel.Scalar]{dims: dims, vals: vals}
}

func dims2(dims []int) (rows, cols int) {
	if len(dims) == 1 {
		return dims[0], 1
	}
	return dims[0], dims[1]
}

// maxSpecNodes bounds the DSL nodes lifting one kernel may build (one per
// float arithmetic operation, negation or call), so a loop that stays
// inside maxLoopSteps cannot still build a specification too large to
// compile. The largest count over the sources in testdata, examples and
// the benchmark suite, 2DConv 16x16 4x4 and MatMul 16x16 16x16, is 8,192.
const maxSpecNodes = 100_000

// ErrDataDependent wraps errors caused by control flow over float data.
type ErrDataDependent struct{ Pos Pos }

// Error says where the kernel branches on float data.
func (e *ErrDataDependent) Error() string {
	return fmt.Sprintf("%s: data-dependent control flow cannot be lifted (conditions must be over integer index values)", e.Pos)
}

// symbolic is Lift's domain: float values are DSL expressions, built with
// the kernel package's peephole simplification.
type symbolic struct {
	nodes int // DSL nodes built so far, against maxSpecNodes
}

func (*symbolic) num(v float64) kernel.Scalar { return kernel.Const(v) }

// node counts one DSL node built for the expression at pos.
func (s *symbolic) node(pos Pos) error {
	if s.nodes++; s.nodes > maxSpecNodes {
		return errf(pos, "specification exceeded the budget of %d nodes", maxSpecNodes)
	}
	return nil
}

func (s *symbolic) arith(op string, l, r kernel.Scalar, pos Pos) (kernel.Scalar, error) {
	if err := s.node(pos); err != nil {
		return kernel.Scalar{}, err
	}
	switch op {
	case "+":
		return kernel.Add(l, r), nil
	case "-":
		return kernel.Sub(l, r), nil
	case "*":
		return kernel.Mul(l, r), nil
	}
	return kernel.DivS(l, r), nil
}

func (s *symbolic) neg(x kernel.Scalar, pos Pos) (kernel.Scalar, error) {
	return kernel.NegS(x), s.node(pos)
}

func (s *symbolic) call(name string, args []kernel.Scalar, pos Pos) (kernel.Scalar, error) {
	if err := s.node(pos); err != nil {
		return kernel.Scalar{}, err
	}
	switch name {
	case "sqrt":
		return kernel.SqrtS(args[0]), nil
	case "abs":
		// |x| = x · sgn(x) in the DSL (sgn ∈ {−1, +1}).
		return kernel.Mul(args[0], kernel.SgnS(args[0])), nil
	case "sgn":
		return kernel.SgnS(args[0]), nil
	}
	return kernel.Call(name, args...), nil
}

// compare rejects every float comparison: its outcome depends on the
// input data, which lifting keeps symbolic.
func (*symbolic) compare(_ string, _, _ kernel.Scalar, pos Pos) (bool, error) {
	return false, &ErrDataDependent{Pos: pos}
}
