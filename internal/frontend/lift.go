package frontend

import (
	"fmt"

	"diospyros/internal/kernel"
)

// Lift symbolically evaluates a kernel into the vector DSL (paper §3.1):
// integer values (indices, bounds, conditions) are computed concretely,
// while float data values remain symbolic. Control flow must therefore be
// input-independent; a condition that inspects float data is rejected with
// an explanatory error.
func Lift(k *Kernel) (*kernel.Lifted, error) {
	b := kernel.NewBuilder(k.Name)
	sc := newSScope(nil)
	for _, p := range k.Params {
		rows, cols := dims2(p.Dims)
		bind(&sc.arrays, p.Name, &sArray{mat: b.Input(p.Name, rows, cols), dims: p.Dims})
	}
	for _, p := range k.Outs {
		rows, cols := dims2(p.Dims)
		bind(&sc.arrays, p.Name, &sArray{mat: b.Output(p.Name, rows, cols), dims: p.Dims})
	}
	e := &liftEnv{}
	if err := e.block(k.Body, newSScope(sc)); err != nil {
		return nil, err
	}
	return b.Lift(), nil
}

func dims2(dims []int) (rows, cols int) {
	if len(dims) == 1 {
		return dims[0], 1
	}
	return dims[0], dims[1]
}

// sArray is either a kernel-builder matrix (params/outs) or a local
// symbolic array.
type sArray struct {
	mat   *kernel.Matrix // nil for locals
	local []kernel.Scalar
	dims  []int
}

func (a *sArray) flat(idx []int, pos Pos) (int, error) {
	off := 0
	for d, i := range idx {
		if i < 0 || i >= a.dims[d] {
			return 0, errf(pos, "index %d out of bounds for dimension %d (size %d)", i, d, a.dims[d])
		}
		off = off*a.dims[d] + i
	}
	return off, nil
}

func (a *sArray) read(idx []int, pos Pos) (kernel.Scalar, error) {
	off, err := a.flat(idx, pos)
	if err != nil {
		return kernel.Scalar{}, err
	}
	if a.mat != nil {
		cols := 1
		if len(a.dims) == 2 {
			cols = a.dims[1]
		}
		return a.mat.At(off/cols, off%cols), nil
	}
	return a.local[off], nil
}

func (a *sArray) write(idx []int, v kernel.Scalar, pos Pos) error {
	off, err := a.flat(idx, pos)
	if err != nil {
		return err
	}
	if a.mat != nil {
		cols := 1
		if len(a.dims) == 2 {
			cols = a.dims[1]
		}
		a.mat.Set(off/cols, off%cols, v)
		return nil
	}
	a.local[off] = v
	return nil
}

type sScope struct {
	parent *sScope
	ints   map[string]int
	floats map[string]kernel.Scalar
	arrays map[string]*sArray
}

// newSScope returns an empty scope; its maps are allocated on first write
// (bind).
func newSScope(parent *sScope) *sScope { return &sScope{parent: parent} }

// reset empties the scope for a loop's next iteration, keeping its maps.
func (s *sScope) reset() { clear(s.ints); clear(s.floats); clear(s.arrays) }

func (s *sScope) findInt(name string) (*sScope, bool) {
	for c := s; c != nil; c = c.parent {
		if _, ok := c.ints[name]; ok {
			return c, true
		}
	}
	return nil, false
}

func (s *sScope) findFloat(name string) (*sScope, bool) {
	for c := s; c != nil; c = c.parent {
		if _, ok := c.floats[name]; ok {
			return c, true
		}
	}
	return nil, false
}

func (s *sScope) findArray(name string) (*sArray, bool) {
	for c := s; c != nil; c = c.parent {
		if a, ok := c.arrays[name]; ok {
			return a, true
		}
	}
	return nil, false
}

type liftEnv struct {
	loopSteps
}

// ErrDataDependent wraps errors caused by control flow over float data.
type ErrDataDependent struct{ Pos Pos }

func (e *ErrDataDependent) Error() string {
	return fmt.Sprintf("%s: data-dependent control flow cannot be lifted (conditions must be over integer index values)", e.Pos)
}

// block runs b's statements in sc.
func (e *liftEnv) block(b *Block, sc *sScope) error {
	for _, st := range b.Stmts {
		if err := e.stmt(st, sc); err != nil {
			return err
		}
	}
	return nil
}

func (e *liftEnv) stmt(st Stmt, sc *sScope) error {
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
		body := newSScope(sc)
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
		body := newSScope(sc)
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
			return e.block(s.Then, newSScope(sc))
		}
		if s.Else != nil {
			return e.block(s.Else, newSScope(sc))
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
		local := make([]kernel.Scalar, n)
		for i := range local {
			local[i] = kernel.Const(0)
		}
		bind(&sc.arrays, s.Name, &sArray{local: local, dims: s.Dims})
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
		v, err := e.floatExpr(s.Val, sc)
		if err != nil {
			return err
		}
		return arr.write(idx, v, s.Pos)
	}
	return fmt.Errorf("frontend: unknown statement %T", st)
}

func (e *liftEnv) intExpr(x Expr, sc *sScope) (int, error) {
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

func (e *liftEnv) floatExpr(x Expr, sc *sScope) (kernel.Scalar, error) {
	zero := kernel.Scalar{}
	switch v := x.(type) {
	case *NumLit:
		if v.IsInt {
			return kernel.Const(float64(v.I)), nil
		}
		return kernel.Const(v.F), nil
	case *CastExpr:
		i, err := e.intExpr(v.X, sc)
		if err != nil {
			return zero, err
		}
		return kernel.Const(float64(i)), nil
	case *VarRef:
		if owner, ok := sc.findFloat(v.Name); ok {
			return owner.floats[v.Name], nil
		}
		return zero, errf(v.Pos, "undefined float variable %q", v.Name)
	case *IndexExpr:
		arr, ok := sc.findArray(v.Name)
		if !ok {
			return zero, errf(v.Pos, "unknown array %q", v.Name)
		}
		idx := make([]int, len(v.Indices))
		for i, ix := range v.Indices {
			iv, err := e.intExpr(ix, sc)
			if err != nil {
				return zero, err
			}
			idx[i] = iv
		}
		return arr.read(idx, v.Pos)
	case *BinExpr:
		l, err := e.floatExpr(v.L, sc)
		if err != nil {
			return zero, err
		}
		r, err := e.floatExpr(v.R, sc)
		if err != nil {
			return zero, err
		}
		switch v.Op {
		case "+":
			return kernel.Add(l, r), nil
		case "-":
			return kernel.Sub(l, r), nil
		case "*":
			return kernel.Mul(l, r), nil
		case "/":
			return kernel.DivS(l, r), nil
		}
		return zero, errf(v.Pos, "operator %q not a float operator", v.Op)
	case *UnExpr:
		val, err := e.floatExpr(v.X, sc)
		if err != nil {
			return zero, err
		}
		return kernel.NegS(val), nil
	case *CallExpr:
		args := make([]kernel.Scalar, len(v.Args))
		for i, a := range v.Args {
			av, err := e.floatExpr(a, sc)
			if err != nil {
				return zero, err
			}
			args[i] = av
		}
		switch v.Name {
		case "sqrt":
			return kernel.SqrtS(args[0]), nil
		case "abs":
			// |x| = x · sgn(x) in the DSL (sgn ∈ {−1, +1}).
			return kernel.Mul(args[0], kernel.SgnS(args[0])), nil
		case "sgn":
			return kernel.SgnS(args[0]), nil
		}
		return kernel.Call(v.Name, args...), nil
	}
	return zero, errf(x.ExprPos(), "expected float expression")
}

// boolExpr evaluates a condition concretely. Comparisons over float data
// are data-dependent and cannot be lifted.
func (e *liftEnv) boolExpr(x Expr, sc *sScope) (bool, error) {
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
				return false, &ErrDataDependent{Pos: v.Pos}
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
