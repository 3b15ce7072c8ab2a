package frontend

import (
	"cmp"
	"context"
	"fmt"
)

// domain is the float half of the kernel evaluator. Integer values
// (indices, bounds, loop counters, conditions over them) are always
// concrete; float data values are an F. Interp runs the evaluator over
// float64 (concrete), Lift over kernel.Scalar (symbolic, paper §3.1).
type domain[F any] interface {
	// num is the value of a float literal.
	num(v float64) F
	// arith applies op, one of + - * /, to l and r.
	arith(op string, l, r F, pos Pos) (F, error)
	// neg returns -x.
	neg(x F, pos Pos) (F, error)
	// call applies a builtin (sqrt, abs, sgn) or user-defined function.
	call(name string, args []F, pos Pos) (F, error)
	// compare decides a float comparison, or rejects it.
	compare(op string, l, r F, pos Pos) (bool, error)
}

// maxLoopSteps bounds the loop iterations, for and while together, that
// lifting or interpreting one kernel may run, so a hostile or
// non-terminating kernel fails fast with a positioned error. The largest
// kernel in testdata, examples and the benchmark suite, 2DConv 16x16 4x4,
// runs 7,600.
const maxLoopSteps = 500_000

// ctxPollSteps amortizes the evaluator's context poll: it checks for
// cancellation once per this many loop iterations, as saturation's apply
// phase checks once per batch of applies.
const ctxPollSteps = 64

// evaluator walks a typechecked kernel body over the float domain F.
type evaluator[F any] struct {
	dom   domain[F]
	ctx   context.Context // polled every ctxPollSteps loop iterations
	steps int             // loop iterations run so far, against maxLoopSteps
}

// array is a kernel array (input, output or local), stored flat in
// row-major order.
type array[F any] struct {
	dims []int
	vals []F
}

// newArray returns an array of the given shape with every element num(0).
func newArray[F any](dom domain[F], dims []int) *array[F] {
	n := 1
	for _, d := range dims {
		n *= d
	}
	a := &array[F]{dims: dims, vals: make([]F, n)}
	for i := range a.vals {
		a.vals[i] = dom.num(0)
	}
	return a
}

// frame is one lexical scope of the evaluator. Its maps are allocated on
// first write (bind).
type frame[F any] struct {
	parent *frame[F]
	ints   map[string]int
	floats map[string]F
	arrays map[string]*array[F]
}

// reset empties the frame for a loop's next iteration, keeping its maps.
func (f *frame[F]) reset() { clear(f.ints); clear(f.floats); clear(f.arrays) }

// intVars returns the map of the innermost frame declaring int name.
func (f *frame[F]) intVars(name string) map[string]int {
	for c := f; c != nil; c = c.parent {
		if _, ok := c.ints[name]; ok {
			return c.ints
		}
	}
	return nil
}

// floatVars returns the map of the innermost frame declaring float name.
func (f *frame[F]) floatVars(name string) map[string]F {
	for c := f; c != nil; c = c.parent {
		if _, ok := c.floats[name]; ok {
			return c.floats
		}
	}
	return nil
}

// bind sets (*m)[name] = v, allocating the map on a frame's first write.
func bind[V any](m *map[string]V, name string, v V) {
	if *m == nil {
		*m = map[string]V{}
	}
	(*m)[name] = v
}

// run executes the kernel body in a frame below the one binding the
// kernel's arrays.
func (e *evaluator[F]) run(k *Kernel, arrays map[string]*array[F]) error {
	return e.block(k.Body, &frame[F]{parent: &frame[F]{arrays: arrays}})
}

// step counts one iteration of the loop at pos. It fails when the loop
// budget is spent or, polled every ctxPollSteps steps, when the context is
// done, with the context's cause.
func (e *evaluator[F]) step(pos Pos) error {
	if e.steps++; e.steps > maxLoopSteps {
		return errf(pos, "loop exceeded the budget of %d iterations", maxLoopSteps)
	}
	if e.steps%ctxPollSteps == 0 && e.ctx.Err() != nil {
		return context.Cause(e.ctx)
	}
	return nil
}

// block runs b's statements in sc.
func (e *evaluator[F]) block(b *Block, sc *frame[F]) error {
	for _, st := range b.Stmts {
		if err := e.stmt(st, sc); err != nil {
			return err
		}
	}
	return nil
}

func (e *evaluator[F]) stmt(st Stmt, sc *frame[F]) error {
	switch s := st.(type) {
	case *ForStmt:
		lo, err := e.intExpr(s.Lo, sc)
		if err != nil {
			return err
		}
		hi, err := e.intExpr(s.Hi, sc)
		if err != nil {
			return err
		}
		// One body frame serves every iteration, emptied each time.
		body := &frame[F]{parent: sc}
		for i := lo; i < hi; i++ {
			if err := e.step(s.Pos); err != nil {
				return err
			}
			body.reset()
			bind(&body.ints, s.Var, i)
			if err := e.block(s.Body, body); err != nil {
				return err
			}
		}
		return nil
	case *WhileStmt:
		body := &frame[F]{parent: sc}
		for {
			if err := e.step(s.Pos); err != nil {
				return err
			}
			cond, err := e.boolExpr(s.Cond, sc)
			if err != nil || !cond {
				return err
			}
			body.reset()
			if err := e.block(s.Body, body); err != nil {
				return err
			}
		}
	case *IfStmt:
		cond, err := e.boolExpr(s.Cond, sc)
		if err != nil {
			return err
		}
		if cond {
			return e.block(s.Then, &frame[F]{parent: sc})
		}
		if s.Else != nil {
			return e.block(s.Else, &frame[F]{parent: sc})
		}
		return nil
	case *LetStmt:
		if s.Type == TypeInt {
			v, err := e.intExpr(s.Val, sc)
			if err != nil {
				return err
			}
			bind(&sc.ints, s.Name, v)
			return nil
		}
		v, err := e.floatExpr(s.Val, sc)
		if err != nil {
			return err
		}
		bind(&sc.floats, s.Name, v)
		return nil
	case *VarArrayStmt:
		bind(&sc.arrays, s.Name, newArray(e.dom, s.Dims))
		return nil
	case *AssignStmt:
		if len(s.Indices) == 0 {
			if vars := sc.intVars(s.Name); vars != nil {
				v, err := e.intExpr(s.Val, sc)
				if err != nil {
					return err
				}
				vars[s.Name] = v
				return nil
			}
			vars := sc.floatVars(s.Name)
			if vars == nil {
				return errf(s.Pos, "assignment to undefined %q", s.Name)
			}
			v, err := e.floatExpr(s.Val, sc)
			if err != nil {
				return err
			}
			vars[s.Name] = v
			return nil
		}
		arr, off, err := e.element(s.Name, s.Indices, s.Pos, sc)
		if err != nil {
			return err
		}
		v, err := e.floatExpr(s.Val, sc)
		if err != nil {
			return err
		}
		arr.vals[off] = v
		return nil
	}
	return fmt.Errorf("frontend: unknown statement %T", st)
}

// element resolves the access name[indices...] at pos to its array and
// flat offset, checking each index against its dimension as it is
// evaluated.
func (e *evaluator[F]) element(name string, indices []Expr, pos Pos, sc *frame[F]) (*array[F], int, error) {
	var arr *array[F]
	for c := sc; c != nil && arr == nil; c = c.parent {
		arr = c.arrays[name]
	}
	if arr == nil {
		return nil, 0, errf(pos, "unknown array %q", name)
	}
	off := 0
	for d, ix := range indices {
		i, err := e.intExpr(ix, sc)
		if err != nil {
			return nil, 0, err
		}
		if i < 0 || i >= arr.dims[d] {
			return nil, 0, errf(pos, "%s: index %d out of bounds for dimension %d (size %d)", name, i, d, arr.dims[d])
		}
		off = off*arr.dims[d] + i
	}
	return arr, off, nil
}

func (e *evaluator[F]) intExpr(x Expr, sc *frame[F]) (int, error) {
	switch v := x.(type) {
	case *NumLit:
		return int(v.I), nil
	case *VarRef:
		if vars := sc.intVars(v.Name); vars != nil {
			return vars[v.Name], nil
		}
		return 0, errf(v.Pos, "undefined int variable %q", v.Name)
	case *BinExpr:
		l, err := e.intExpr(v.L, sc)
		if err != nil {
			return 0, err
		}
		r, err := e.intExpr(v.R, sc)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, errf(v.Pos, "integer division by zero")
			}
			return l / r, nil
		case "%":
			if r == 0 {
				return 0, errf(v.Pos, "integer modulo by zero")
			}
			return l % r, nil
		}
		return 0, errf(v.Pos, "operator %q not an int operator", v.Op)
	case *UnExpr:
		val, err := e.intExpr(v.X, sc)
		return -val, err
	}
	return 0, errf(x.ExprPos(), "expected integer expression")
}

func (e *evaluator[F]) floatExpr(x Expr, sc *frame[F]) (F, error) {
	var zero F
	switch v := x.(type) {
	case *NumLit:
		if v.IsInt {
			return e.dom.num(float64(v.I)), nil
		}
		return e.dom.num(v.F), nil
	case *CastExpr:
		i, err := e.intExpr(v.X, sc)
		if err != nil {
			return zero, err
		}
		return e.dom.num(float64(i)), nil
	case *VarRef:
		if vars := sc.floatVars(v.Name); vars != nil {
			return vars[v.Name], nil
		}
		return zero, errf(v.Pos, "undefined float variable %q", v.Name)
	case *IndexExpr:
		arr, off, err := e.element(v.Name, v.Indices, v.Pos, sc)
		if err != nil {
			return zero, err
		}
		return arr.vals[off], nil
	case *BinExpr:
		switch v.Op {
		case "+", "-", "*", "/":
		default:
			return zero, errf(v.Pos, "operator %q not a float operator", v.Op)
		}
		l, err := e.floatExpr(v.L, sc)
		if err != nil {
			return zero, err
		}
		r, err := e.floatExpr(v.R, sc)
		if err != nil {
			return zero, err
		}
		return e.dom.arith(v.Op, l, r, v.Pos)
	case *UnExpr:
		val, err := e.floatExpr(v.X, sc)
		if err != nil {
			return zero, err
		}
		return e.dom.neg(val, v.Pos)
	case *CallExpr:
		args := make([]F, len(v.Args))
		for i, a := range v.Args {
			av, err := e.floatExpr(a, sc)
			if err != nil {
				return zero, err
			}
			args[i] = av
		}
		return e.dom.call(v.Name, args, v.Pos)
	}
	return zero, errf(x.ExprPos(), "expected float expression")
}

func (e *evaluator[F]) boolExpr(x Expr, sc *frame[F]) (bool, error) {
	switch v := x.(type) {
	case *BinExpr:
		switch v.Op {
		case "&&":
			l, err := e.boolExpr(v.L, sc)
			if err != nil || !l {
				return false, err
			}
			return e.boolExpr(v.R, sc)
		case "||":
			l, err := e.boolExpr(v.L, sc)
			if err != nil || l {
				return l, err
			}
			return e.boolExpr(v.R, sc)
		case "<", "<=", ">", ">=", "==", "!=":
			if v.L.ExprType() == TypeFloat {
				l, err := e.floatExpr(v.L, sc)
				if err != nil {
					return false, err
				}
				r, err := e.floatExpr(v.R, sc)
				if err != nil {
					return false, err
				}
				return e.dom.compare(v.Op, l, r, v.Pos)
			}
			l, err := e.intExpr(v.L, sc)
			if err != nil {
				return false, err
			}
			r, err := e.intExpr(v.R, sc)
			if err != nil {
				return false, err
			}
			return cmpOp(v.Op, l, r), nil
		}
	case *UnExpr:
		if v.Op == "!" {
			b, err := e.boolExpr(v.X, sc)
			return !b, err
		}
	}
	return false, errf(x.ExprPos(), "expected boolean expression")
}

// cmpOp decides l op r for a comparison operator op.
func cmpOp[T cmp.Ordered](op string, l, r T) bool {
	switch op {
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	case ">=":
		return l >= r
	case "==":
		return l == r
	default:
		return l != r
	}
}
