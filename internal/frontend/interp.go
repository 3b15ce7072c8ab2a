package frontend

import (
	"fmt"
	"math"

	"diospyros/internal/expr"
)

// Interp concretely executes a kernel on float64 inputs, returning its
// outputs. This is the host reference semantics used for differential
// testing of every other execution path (lifting, baseline compilation,
// library kernels).
func Interp(k *Kernel, inputs map[string][]float64, funcs map[string]func([]float64) float64) (map[string][]float64, error) {
	env := &interpEnv{funcs: funcs}
	sc := newIScope(nil)
	for _, p := range k.Params {
		data, ok := inputs[p.Name]
		if !ok {
			return nil, fmt.Errorf("frontend: missing input %q", p.Name)
		}
		if len(data) != p.Len() {
			return nil, fmt.Errorf("frontend: input %q has %d elements, want %d", p.Name, len(data), p.Len())
		}
		bind(&sc.arrays, p.Name, &iArray{dims: p.Dims, vals: append([]float64(nil), data...)})
	}
	outputs := map[string][]float64{}
	for _, p := range k.Outs {
		arr := &iArray{dims: p.Dims, vals: make([]float64, p.Len()), writable: true}
		bind(&sc.arrays, p.Name, arr)
		outputs[p.Name] = arr.vals
	}
	if err := env.block(k.Body, newIScope(sc)); err != nil {
		return nil, err
	}
	return outputs, nil
}

// maxLoopSteps bounds the loop iterations, for and while together, that
// lifting or interpreting one kernel may run, so a hostile or
// non-terminating kernel fails fast with a positioned error. The largest
// kernel in testdata, examples and the benchmark suite, 2DConv 16x16 4x4,
// runs 7,600.
const maxLoopSteps = 500_000

// loopSteps counts loop iterations against maxLoopSteps.
type loopSteps int

// step counts one iteration of the loop at pos.
func (n *loopSteps) step(pos Pos) error {
	if *n++; *n > maxLoopSteps {
		return errf(pos, "loop exceeded the budget of %d iterations", maxLoopSteps)
	}
	return nil
}

// bind sets (*m)[name] = v, allocating the map on a scope's first write.
func bind[V any](m *map[string]V, name string, v V) {
	if *m == nil {
		*m = map[string]V{}
	}
	(*m)[name] = v
}

type iArray struct {
	dims     []int
	vals     []float64
	writable bool
}

func (a *iArray) flat(idx []int) (int, error) {
	off := 0
	for d, i := range idx {
		if i < 0 || i >= a.dims[d] {
			return 0, fmt.Errorf("index %d out of bounds for dimension %d (size %d)", i, d, a.dims[d])
		}
		off = off*a.dims[d] + i
	}
	return off, nil
}

type iScope struct {
	parent *iScope
	ints   map[string]int
	floats map[string]float64
	arrays map[string]*iArray
}

// newIScope returns an empty scope; its maps are allocated on first write
// (bind).
func newIScope(parent *iScope) *iScope { return &iScope{parent: parent} }

// reset empties the scope for a loop's next iteration, keeping its maps.
func (s *iScope) reset() { clear(s.ints); clear(s.floats); clear(s.arrays) }

func (s *iScope) findInt(name string) (*iScope, bool) {
	for c := s; c != nil; c = c.parent {
		if _, ok := c.ints[name]; ok {
			return c, true
		}
	}
	return nil, false
}

func (s *iScope) findFloat(name string) (*iScope, bool) {
	for c := s; c != nil; c = c.parent {
		if _, ok := c.floats[name]; ok {
			return c, true
		}
	}
	return nil, false
}

func (s *iScope) findArray(name string) (*iArray, bool) {
	for c := s; c != nil; c = c.parent {
		if a, ok := c.arrays[name]; ok {
			return a, true
		}
	}
	return nil, false
}

type interpEnv struct {
	funcs map[string]func([]float64) float64
	loopSteps
}

// block runs b's statements in sc.
func (e *interpEnv) block(b *Block, sc *iScope) error {
	for _, st := range b.Stmts {
		if err := e.stmt(st, sc); err != nil {
			return err
		}
	}
	return nil
}

func (e *interpEnv) stmt(st Stmt, sc *iScope) error {
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
		// One body scope serves every iteration, emptied each time.
		body := newIScope(sc)
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
		body := newIScope(sc)
		for {
			if err := e.step(s.Pos); err != nil {
				return err
			}
			cond, err := e.boolExpr(s.Cond, sc)
			if err != nil {
				return err
			}
			if !cond {
				return nil
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
			return e.block(s.Then, newIScope(sc))
		}
		if s.Else != nil {
			return e.block(s.Else, newIScope(sc))
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
		n := 1
		for _, d := range s.Dims {
			n *= d
		}
		bind(&sc.arrays, s.Name, &iArray{dims: s.Dims, vals: make([]float64, n), writable: true})
		return nil
	case *AssignStmt:
		if len(s.Indices) == 0 {
			if owner, ok := sc.findInt(s.Name); ok {
				v, err := e.intExpr(s.Val, sc)
				if err != nil {
					return err
				}
				owner.ints[s.Name] = v
				return nil
			}
			owner, ok := sc.findFloat(s.Name)
			if !ok {
				return errf(s.Pos, "assignment to undefined %q", s.Name)
			}
			v, err := e.floatExpr(s.Val, sc)
			if err != nil {
				return err
			}
			owner.floats[s.Name] = v
			return nil
		}
		arr, ok := sc.findArray(s.Name)
		if !ok {
			return errf(s.Pos, "unknown array %q", s.Name)
		}
		idx := make([]int, len(s.Indices))
		for i, ix := range s.Indices {
			v, err := e.intExpr(ix, sc)
			if err != nil {
				return err
			}
			idx[i] = v
		}
		off, err := arr.flat(idx)
		if err != nil {
			return errf(s.Pos, "%s: %v", s.Name, err)
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

func (e *interpEnv) intExpr(x Expr, sc *iScope) (int, error) {
	switch v := x.(type) {
	case *NumLit:
		return int(v.I), nil
	case *VarRef:
		if owner, ok := sc.findInt(v.Name); ok {
			return owner.ints[v.Name], nil
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
		if err != nil {
			return 0, err
		}
		return -val, nil
	}
	return 0, errf(x.ExprPos(), "expected integer expression")
}

func (e *interpEnv) floatExpr(x Expr, sc *iScope) (float64, error) {
	switch v := x.(type) {
	case *NumLit:
		if v.IsInt {
			return float64(v.I), nil
		}
		return v.F, nil
	case *CastExpr:
		i, err := e.intExpr(v.X, sc)
		if err != nil {
			return 0, err
		}
		return float64(i), nil
	case *VarRef:
		if owner, ok := sc.findFloat(v.Name); ok {
			return owner.floats[v.Name], nil
		}
		return 0, errf(v.Pos, "undefined float variable %q", v.Name)
	case *IndexExpr:
		arr, ok := sc.findArray(v.Name)
		if !ok {
			return 0, errf(v.Pos, "unknown array %q", v.Name)
		}
		idx := make([]int, len(v.Indices))
		for i, ix := range v.Indices {
			iv, err := e.intExpr(ix, sc)
			if err != nil {
				return 0, err
			}
			idx[i] = iv
		}
		off, err := arr.flat(idx)
		if err != nil {
			return 0, errf(v.Pos, "%s: %v", v.Name, err)
		}
		return arr.vals[off], nil
	case *BinExpr:
		l, err := e.floatExpr(v.L, sc)
		if err != nil {
			return 0, err
		}
		r, err := e.floatExpr(v.R, sc)
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
			return l / r, nil
		}
		return 0, errf(v.Pos, "operator %q not a float operator", v.Op)
	case *UnExpr:
		val, err := e.floatExpr(v.X, sc)
		if err != nil {
			return 0, err
		}
		return -val, nil
	case *CallExpr:
		args := make([]float64, len(v.Args))
		for i, a := range v.Args {
			av, err := e.floatExpr(a, sc)
			if err != nil {
				return 0, err
			}
			args[i] = av
		}
		switch v.Name {
		case "sqrt":
			return math.Sqrt(args[0]), nil
		case "abs":
			return math.Abs(args[0]), nil
		case "sgn":
			return expr.Sign(args[0]), nil
		}
		fn, ok := e.funcs[v.Name]
		if !ok {
			return 0, errf(v.Pos, "no semantics for function %q", v.Name)
		}
		return fn(args), nil
	}
	return 0, errf(x.ExprPos(), "expected float expression")
}

func (e *interpEnv) boolExpr(x Expr, sc *iScope) (bool, error) {
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
				return cmpFloat(v.Op, l, r), nil
			}
			l, err := e.intExpr(v.L, sc)
			if err != nil {
				return false, err
			}
			r, err := e.intExpr(v.R, sc)
			if err != nil {
				return false, err
			}
			return cmpInt(v.Op, l, r), nil
		}
	case *UnExpr:
		if v.Op == "!" {
			b, err := e.boolExpr(v.X, sc)
			return !b, err
		}
	}
	return false, errf(x.ExprPos(), "expected boolean expression")
}

func cmpInt(op string, l, r int) bool {
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

func cmpFloat(op string, l, r float64) bool {
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
