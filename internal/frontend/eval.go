package frontend

import (
	"cmp"
	"context"
	"fmt"
)

// Domain is the float half of the kernel walker. Integer values (indices,
// bounds, loop counters, conditions over them) are always concrete; float
// data values are an F, and arrays of them are stored as the domain
// chooses. Interp runs the walker over float64 (concrete), Lift over
// *expr.Expr (symbolic, paper §3.1: the domain builds the DSL terms), and
// kcc's FixedSize mode over FG3-lite float registers.
type Domain[F any] interface {
	// Num is the value of a float literal.
	Num(v float64) F
	// Arith applies op, one of + - * /, to l and r.
	Arith(op string, l, r F, pos Pos) (F, error)
	// Neg returns -x.
	Neg(x F, pos Pos) (F, error)
	// Call applies a builtin (sqrt, abs, sgn) or user-defined function.
	// args is the call's own slice; the domain may keep it.
	Call(name string, args []F, pos Pos) (F, error)
	// Compare decides a float comparison, or rejects it.
	Compare(op string, l, r F, pos Pos) (bool, error)
	// Local returns the var array name of the given shape, every element
	// zero.
	Local(name string, dims []int) Array[F]
}

// Array is a kernel array (input, output or local) as its domain stores
// it. The walker resolves each access to a row-major offset, checked
// against Dims, before it loads or stores.
type Array[F any] interface {
	Dims() []int
	Load(off int) F
	Store(off int, v F)
}

// slice is the Array of Lift and Interp: the elements, flat.
type slice[F any] struct {
	dims []int
	vals []F
}

func (a *slice[F]) Dims() []int        { return a.dims }
func (a *slice[F]) Load(off int) F     { return a.vals[off] }
func (a *slice[F]) Store(off int, v F) { a.vals[off] = v }

// zeros returns a slice array of the given shape with every element
// Num(0).
func zeros[F any](dom Domain[F], dims []int) *slice[F] {
	n := 1
	for _, d := range dims {
		n *= d
	}
	a := &slice[F]{dims: dims, vals: make([]F, n)}
	for i := range a.vals {
		a.vals[i] = dom.Num(0)
	}
	return a
}

// maxWork bounds the work one walk of a kernel may do, in every domain:
// one unit per loop iteration, statement run and expression node
// evaluated, and one per element a var array declares. A hostile or
// non-terminating kernel therefore fails fast with a positioned error
// however its work is split between iterations and loop bodies. The
// largest count over the in-repo sources (testdata, the load generator's
// mix, eigenlite's library sources and the benchmark suite's naive and
// Eigen sources) is 270,363, the naive 2DConv 16x16 4x4; the budget is
// 7.4 times that. A hostile kernel spends it in under 0.1 s, about 0.5 s
// under the race detector (2-vCPU VM; EXPERIMENTS.md "Measuring one
// budget").
const maxWork = 2_000_000

// shapeLen is the element count of an array of shape dims, capped at
// maxWork+1 so that a huge shape trips the budget before it overflows or
// allocates.
func shapeLen(dims []int) int {
	n := 1
	for _, d := range dims {
		n = min(n*min(d, maxWork+1), maxWork+1)
	}
	return n
}

// CheckShapes rejects a kernel whose parameters and outputs declare more
// elements in total than the work budget, at the array that crosses it.
// Lift, Interp and kcc call it before they allocate any array.
func CheckShapes(k *Kernel) error {
	n := 0
	for _, ps := range [][]Param{k.Params, k.Outs} {
		for _, p := range ps {
			if n += shapeLen(p.Dims); n > maxWork {
				return errf(p.Pos, "array %s: parameters and outputs exceed the work budget of %d elements", p.Name, maxWork)
			}
		}
	}
	return nil
}

// ctxPollWork amortizes the walker's context poll: it checks for
// cancellation once per this many units of work, so a long loop body is
// polled as often as a long loop.
const ctxPollWork = 1024

// walker walks a typechecked kernel body over the domain F. It keeps one
// value per slot Check numbered: ints, floats and arrays are indexed by
// slot, and a slot uses the one its declaration's type names. Each
// declaration has its own slot, so a declaration run again (a let in a
// loop body) overwrites its value, and shadowing needs no scope chain.
type walker[F any] struct {
	dom  Domain[F]
	ctx  context.Context // polled every ctxPollWork units of work
	work int             // units of work done so far, against maxWork
	poll int             // work at which spend next calls check

	ints   []int
	floats []F
	arrays []Array[F]
}

// Run walks the body of the typechecked kernel k over dom, with k's
// parameters and then its outputs bound, by position, to arrays. It stops
// with a positioned error once the work budget is spent, and with the
// context's cause once ctx is done.
func Run[F any](ctx context.Context, k *Kernel, dom Domain[F], arrays []Array[F]) error {
	if len(arrays) != len(k.Params)+len(k.Outs) {
		return fmt.Errorf("frontend: kernel %s takes %d arrays, got %d", k.Name, len(k.Params)+len(k.Outs), len(arrays))
	}
	e := &walker[F]{dom: dom, ctx: ctx, ints: make([]int, k.Slots), floats: make([]F, k.Slots), arrays: make([]Array[F], k.Slots)}
	copy(e.arrays, arrays)
	return e.block(k.Body)
}

// spend counts n units of work at pos, calling check every ctxPollWork
// units and once the work budget is spent.
func (e *walker[F]) spend(n int, pos Pos) error {
	if e.work += n; e.work < e.poll {
		return nil
	}
	return e.check(pos)
}

// check fails when the work budget is spent, with a positioned error, or
// when the context is done, with the context's cause.
func (e *walker[F]) check(pos Pos) error {
	if e.work > maxWork {
		return errf(pos, "kernel exceeded the work budget of %d units", maxWork)
	}
	e.poll = min(e.work+ctxPollWork, maxWork+1)
	if e.ctx.Err() != nil {
		return context.Cause(e.ctx)
	}
	return nil
}

// block runs b's statements.
func (e *walker[F]) block(b *Block) error {
	for _, st := range b.Stmts {
		if err := e.spend(1, st.StmtPos()); err != nil {
			return err
		}
		if err := e.stmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (e *walker[F]) stmt(st Stmt) error {
	switch s := st.(type) {
	case *ForStmt:
		lo, err := e.intExpr(s.Lo)
		if err != nil {
			return err
		}
		hi, err := e.intExpr(s.Hi)
		if err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			if err := e.spend(1, s.Pos); err != nil {
				return err
			}
			e.ints[s.Slot] = i
			if err := e.block(s.Body); err != nil {
				return err
			}
		}
		return nil
	case *WhileStmt:
		for {
			if err := e.spend(1, s.Pos); err != nil {
				return err
			}
			cond, err := e.boolExpr(s.Cond)
			if err != nil || !cond {
				return err
			}
			if err := e.block(s.Body); err != nil {
				return err
			}
		}
	case *IfStmt:
		cond, err := e.boolExpr(s.Cond)
		if err != nil {
			return err
		}
		if cond {
			return e.block(s.Then)
		}
		if s.Else != nil {
			return e.block(s.Else)
		}
		return nil
	case *LetStmt:
		return e.scalar(s.Slot, s.Val)
	case *VarArrayStmt:
		// The zero fill is work, one unit per element.
		if err := e.spend(shapeLen(s.Dims), s.Pos); err != nil {
			return err
		}
		e.arrays[s.Slot] = e.dom.Local(s.Name, s.Dims)
		return nil
	case *AssignStmt:
		if len(s.Indices) == 0 {
			return e.scalar(s.Slot, s.Val)
		}
		arr, off, err := e.element(s.Name, s.Slot, s.Indices, s.Pos)
		if err != nil {
			return err
		}
		v, err := e.floatExpr(s.Val)
		if err != nil {
			return err
		}
		arr.Store(off, v)
		return nil
	}
	return fmt.Errorf("frontend: unknown statement %T", st)
}

// scalar sets scalar slot to the value of val, which Check typed as the
// slot's declaration.
func (e *walker[F]) scalar(slot int, val Expr) error {
	if val.ExprType() == TypeInt {
		v, err := e.intExpr(val)
		e.ints[slot] = v
		return err
	}
	v, err := e.floatExpr(val)
	e.floats[slot] = v
	return err
}

// element resolves the access name[indices...] at pos, of the array in
// slot, to its array and flat offset, checking each index against its
// dimension as it is evaluated.
func (e *walker[F]) element(name string, slot int, indices []Expr, pos Pos) (Array[F], int, error) {
	arr := e.arrays[slot]
	dims, off := arr.Dims(), 0
	for d, ix := range indices {
		i, err := e.intExpr(ix)
		if err != nil {
			return nil, 0, err
		}
		if i < 0 || i >= dims[d] {
			return nil, 0, errf(pos, "%s: index %d out of bounds for dimension %d (size %d)", name, i, d, dims[d])
		}
		off = off*dims[d] + i
	}
	return arr, off, nil
}

func (e *walker[F]) intExpr(x Expr) (int, error) {
	if err := e.spend(1, x.ExprPos()); err != nil {
		return 0, err
	}
	switch v := x.(type) {
	case *NumLit:
		return int(v.I), nil
	case *VarRef:
		return e.ints[v.Slot], nil
	case *BinExpr:
		l, err := e.intExpr(v.L)
		if err != nil {
			return 0, err
		}
		r, err := e.intExpr(v.R)
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
		val, err := e.intExpr(v.X)
		return -val, err
	}
	return 0, errf(x.ExprPos(), "expected integer expression")
}

func (e *walker[F]) floatExpr(x Expr) (F, error) {
	var zero F
	if err := e.spend(1, x.ExprPos()); err != nil {
		return zero, err
	}
	switch v := x.(type) {
	case *NumLit:
		if v.IsInt {
			return e.dom.Num(float64(v.I)), nil
		}
		return e.dom.Num(v.F), nil
	case *CastExpr:
		i, err := e.intExpr(v.X)
		if err != nil {
			return zero, err
		}
		return e.dom.Num(float64(i)), nil
	case *VarRef:
		return e.floats[v.Slot], nil
	case *IndexExpr:
		arr, off, err := e.element(v.Name, v.Slot, v.Indices, v.Pos)
		if err != nil {
			return zero, err
		}
		return arr.Load(off), nil
	case *BinExpr:
		switch v.Op {
		case "+", "-", "*", "/":
		default:
			return zero, errf(v.Pos, "operator %q not a float operator", v.Op)
		}
		l, err := e.floatExpr(v.L)
		if err != nil {
			return zero, err
		}
		r, err := e.floatExpr(v.R)
		if err != nil {
			return zero, err
		}
		return e.dom.Arith(v.Op, l, r, v.Pos)
	case *UnExpr:
		val, err := e.floatExpr(v.X)
		if err != nil {
			return zero, err
		}
		return e.dom.Neg(val, v.Pos)
	case *CallExpr:
		args := make([]F, len(v.Args))
		for i, a := range v.Args {
			av, err := e.floatExpr(a)
			if err != nil {
				return zero, err
			}
			args[i] = av
		}
		return e.dom.Call(v.Name, args, v.Pos)
	}
	return zero, errf(x.ExprPos(), "expected float expression")
}

func (e *walker[F]) boolExpr(x Expr) (bool, error) {
	if err := e.spend(1, x.ExprPos()); err != nil {
		return false, err
	}
	switch v := x.(type) {
	case *BinExpr:
		switch v.Op {
		case "&&":
			l, err := e.boolExpr(v.L)
			if err != nil || !l {
				return false, err
			}
			return e.boolExpr(v.R)
		case "||":
			l, err := e.boolExpr(v.L)
			if err != nil || l {
				return l, err
			}
			return e.boolExpr(v.R)
		case "<", "<=", ">", ">=", "==", "!=":
			if v.L.ExprType() == TypeFloat {
				l, err := e.floatExpr(v.L)
				if err != nil {
					return false, err
				}
				r, err := e.floatExpr(v.R)
				if err != nil {
					return false, err
				}
				return e.dom.Compare(v.Op, l, r, v.Pos)
			}
			l, err := e.intExpr(v.L)
			if err != nil {
				return false, err
			}
			r, err := e.intExpr(v.R)
			if err != nil {
				return false, err
			}
			return cmpOp(v.Op, l, r), nil
		}
	case *UnExpr:
		if v.Op == "!" {
			b, err := e.boolExpr(v.X)
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
