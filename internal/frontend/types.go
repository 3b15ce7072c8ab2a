package frontend

import (
	"fmt"
	"slices"
)

// Check typechecks a kernel in place: it infers types for let bindings,
// inserts implicit int→float promotions, verifies indexing arity, and
// ensures inputs are read-only. It is the kernel's only name resolver:
// it numbers every declaration with a slot (Kernel.Slots) and records on
// each use the slot the name resolves to, so the walker and kcc index
// slots and never look a name up. It also records user-defined
// (uninterpreted) function arities on the kernel. A kernel must declare
// at least one output: with none there is nothing to lift.
func Check(k *Kernel) error {
	if len(k.Outs) == 0 {
		return errf(k.Pos, "kernel %s declares no outputs", k.Name)
	}
	c := &checker{kernel: k}
	k.UserFuncs = map[string]int{}
	k.Slots = 0
	sc := newScope(nil)
	for i, p := range slices.Concat(k.Params, k.Outs) {
		if sc.definedHere(p.Name) {
			return errf(p.Pos, "duplicate parameter %q", p.Name)
		}
		sc.arrays[p.Name] = arrayInfo{slot: c.slot(), dims: p.Dims, writable: i >= len(k.Params)}
	}
	return c.block(k.Body, sc)
}

type arrayInfo struct {
	slot     int
	dims     []int
	writable bool
}

type scalarInfo struct {
	slot int
	typ  Type
	loop bool // a loop variable: int, not assignable
}

// scope is one lexical scope. Scalars and arrays are looked up apart, so
// an array does not hide an outer scalar of its name, nor a scalar an
// outer array; one scope declares a name once.
type scope struct {
	parent  *scope
	scalars map[string]scalarInfo
	arrays  map[string]arrayInfo
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, scalars: map[string]scalarInfo{}, arrays: map[string]arrayInfo{}}
}

func (s *scope) lookupScalar(name string) (scalarInfo, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if v, ok := cur.scalars[name]; ok {
			return v, true
		}
	}
	return scalarInfo{}, false
}

func (s *scope) lookupArray(name string) (arrayInfo, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if a, ok := cur.arrays[name]; ok {
			return a, true
		}
	}
	return arrayInfo{}, false
}

func (s *scope) definedHere(name string) bool {
	_, scalar := s.scalars[name]
	_, array := s.arrays[name]
	return scalar || array
}

type checker struct {
	kernel *Kernel
}

// slot numbers the next declaration.
func (c *checker) slot() int {
	c.kernel.Slots++
	return c.kernel.Slots - 1
}

func (c *checker) block(b *Block, parent *scope) error {
	sc := newScope(parent)
	for _, st := range b.Stmts {
		if err := c.stmt(st, sc); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) stmt(st Stmt, sc *scope) error {
	switch s := st.(type) {
	case *ForStmt:
		if err := c.exprWant(&s.Lo, sc, TypeInt); err != nil {
			return err
		}
		if err := c.exprWant(&s.Hi, sc, TypeInt); err != nil {
			return err
		}
		s.Slot = c.slot()
		body := newScope(sc)
		body.scalars[s.Var] = scalarInfo{slot: s.Slot, typ: TypeInt, loop: true}
		for _, inner := range s.Body.Stmts {
			if err := c.stmt(inner, body); err != nil {
				return err
			}
		}
		return nil
	case *WhileStmt:
		if err := c.exprWant(&s.Cond, sc, TypeBool); err != nil {
			return err
		}
		return c.block(s.Body, sc)
	case *IfStmt:
		if err := c.exprWant(&s.Cond, sc, TypeBool); err != nil {
			return err
		}
		if err := c.block(s.Then, sc); err != nil {
			return err
		}
		if s.Else != nil {
			return c.block(s.Else, sc)
		}
		return nil
	case *LetStmt:
		if sc.definedHere(s.Name) {
			return errf(s.Pos, "redeclaration of %q", s.Name)
		}
		t, err := c.expr(&s.Val, sc)
		if err != nil {
			return err
		}
		if t != TypeInt && t != TypeFloat {
			return errf(s.Pos, "let %s: cannot bind a %s value", s.Name, t)
		}
		s.Type, s.Slot = t, c.slot()
		sc.scalars[s.Name] = scalarInfo{slot: s.Slot, typ: t}
		return nil
	case *VarArrayStmt:
		if sc.definedHere(s.Name) {
			return errf(s.Pos, "redeclaration of %q", s.Name)
		}
		s.Slot = c.slot()
		sc.arrays[s.Name] = arrayInfo{slot: s.Slot, dims: s.Dims, writable: true}
		return nil
	case *AssignStmt:
		if len(s.Indices) == 0 {
			v, ok := sc.lookupScalar(s.Name)
			if !ok {
				if _, isArr := sc.lookupArray(s.Name); isArr {
					return errf(s.Pos, "cannot assign whole array %q", s.Name)
				}
				return errf(s.Pos, "assignment to undeclared variable %q", s.Name)
			}
			if v.loop {
				return errf(s.Pos, "cannot assign to loop variable %q", s.Name)
			}
			s.Slot = v.slot
			return c.exprWant(&s.Val, sc, v.typ)
		}
		info, ok := sc.lookupArray(s.Name)
		if !ok {
			return errf(s.Pos, "assignment to unknown array %q", s.Name)
		}
		if !info.writable {
			return errf(s.Pos, "input array %q is read-only", s.Name)
		}
		if len(s.Indices) != len(info.dims) {
			return errf(s.Pos, "array %q has %d dimensions, got %d indices", s.Name, len(info.dims), len(s.Indices))
		}
		s.Slot = info.slot
		for i := range s.Indices {
			if err := c.exprWant(&s.Indices[i], sc, TypeInt); err != nil {
				return err
			}
		}
		return c.exprWant(&s.Val, sc, TypeFloat)
	}
	return fmt.Errorf("frontend: unknown statement %T", st)
}

// exprWant typechecks *e and coerces it to the wanted type (inserting an
// int→float cast when needed).
func (c *checker) exprWant(e *Expr, sc *scope, want Type) error {
	t, err := c.expr(e, sc)
	if err != nil {
		return err
	}
	if t == want {
		return nil
	}
	if t == TypeInt && want == TypeFloat {
		*e = &CastExpr{exprBase: exprBase{Type: TypeFloat, Pos: (*e).ExprPos()}, X: *e}
		return nil
	}
	return errf((*e).ExprPos(), "expected %s, got %s", want, t)
}

func (c *checker) expr(e *Expr, sc *scope) (Type, error) {
	switch x := (*e).(type) {
	case *NumLit:
		if x.IsInt {
			x.Type = TypeInt
		} else {
			x.Type = TypeFloat
		}
		return x.Type, nil
	case *VarRef:
		v, ok := sc.lookupScalar(x.Name)
		if !ok {
			if _, isArr := sc.lookupArray(x.Name); isArr {
				return 0, errf(x.Pos, "array %q used without indices", x.Name)
			}
			return 0, errf(x.Pos, "undefined variable %q", x.Name)
		}
		x.Type, x.Slot = v.typ, v.slot
		return v.typ, nil
	case *IndexExpr:
		info, ok := sc.lookupArray(x.Name)
		if !ok {
			return 0, errf(x.Pos, "unknown array %q", x.Name)
		}
		if len(x.Indices) != len(info.dims) {
			return 0, errf(x.Pos, "array %q has %d dimensions, got %d indices", x.Name, len(info.dims), len(x.Indices))
		}
		x.Slot = info.slot
		for i := range x.Indices {
			if err := c.exprWant(&x.Indices[i], sc, TypeInt); err != nil {
				return 0, err
			}
		}
		x.Type = TypeFloat
		return TypeFloat, nil
	case *BinExpr:
		switch x.Op {
		case "&&", "||":
			if err := c.exprWant(&x.L, sc, TypeBool); err != nil {
				return 0, err
			}
			if err := c.exprWant(&x.R, sc, TypeBool); err != nil {
				return 0, err
			}
			x.Type = TypeBool
			return TypeBool, nil
		case "%":
			if err := c.exprWant(&x.L, sc, TypeInt); err != nil {
				return 0, err
			}
			if err := c.exprWant(&x.R, sc, TypeInt); err != nil {
				return 0, err
			}
			x.Type = TypeInt
			return TypeInt, nil
		case "+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!=":
			lt, err := c.expr(&x.L, sc)
			if err != nil {
				return 0, err
			}
			rt, err := c.expr(&x.R, sc)
			if err != nil {
				return 0, err
			}
			if lt == TypeBool || rt == TypeBool {
				return 0, errf(x.Pos, "operator %q not defined on bool", x.Op)
			}
			opnd := TypeInt
			if lt == TypeFloat || rt == TypeFloat {
				opnd = TypeFloat
				if lt == TypeInt {
					x.L = &CastExpr{exprBase: exprBase{Type: TypeFloat, Pos: x.L.ExprPos()}, X: x.L}
				}
				if rt == TypeInt {
					x.R = &CastExpr{exprBase: exprBase{Type: TypeFloat, Pos: x.R.ExprPos()}, X: x.R}
				}
			}
			switch x.Op {
			case "+", "-", "*", "/":
				x.Type = opnd
			default:
				x.Type = TypeBool
			}
			return x.Type, nil
		}
		return 0, errf(x.Pos, "unknown operator %q", x.Op)
	case *UnExpr:
		if x.Op == "!" {
			if err := c.exprWant(&x.X, sc, TypeBool); err != nil {
				return 0, err
			}
			x.Type = TypeBool
			return TypeBool, nil
		}
		t, err := c.expr(&x.X, sc)
		if err != nil {
			return 0, err
		}
		if t != TypeInt && t != TypeFloat {
			return 0, errf(x.Pos, "unary - on %s", t)
		}
		x.Type = t
		return t, nil
	case *CastExpr:
		x.Type = TypeFloat
		return TypeFloat, nil
	case *CallExpr:
		if arity, ok := Builtins[x.Name]; ok {
			if len(x.Args) != arity {
				return 0, errf(x.Pos, "%s expects %d argument(s)", x.Name, arity)
			}
		} else {
			// User-defined (uninterpreted) function; arity fixed at first use.
			if prev, ok := c.kernel.UserFuncs[x.Name]; ok && prev != len(x.Args) {
				return 0, errf(x.Pos, "function %q used with %d args, previously %d", x.Name, len(x.Args), prev)
			}
			c.kernel.UserFuncs[x.Name] = len(x.Args)
		}
		for i := range x.Args {
			if err := c.exprWant(&x.Args[i], sc, TypeFloat); err != nil {
				return 0, err
			}
		}
		x.Type = TypeFloat
		return TypeFloat, nil
	}
	return 0, fmt.Errorf("frontend: unknown expression %T", *e)
}
