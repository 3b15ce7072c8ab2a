package kcc

import (
	"fmt"
	"slices"

	"diospyros/internal/frontend"
	"diospyros/internal/isa"
)

// structured is the Parametric-mode compiler: a plain tree-walking code
// generator with runtime loops, runtime index arithmetic, and short-circuit
// conditions.
type structured struct {
	k *frontend.Kernel
	b *isa.Builder
	// slots holds one record per slot frontend.Check numbered.
	slots []sSlot
}

// sSlot is a slot's storage: the register of a scalar, or the
// base-address register and shape of an array.
type sSlot struct {
	reg  int
	dims []int
}

func newStructured(k *frontend.Kernel, b *isa.Builder) *structured {
	return &structured{k: k, b: b, slots: make([]sSlot, k.Slots)}
}

func (c *structured) run() error {
	// Bind parameter/output arrays to base-address registers.
	for i, p := range slices.Concat(c.k.Params, c.k.Outs) {
		reg := c.b.IReg()
		c.b.Emit(isa.Instr{Op: isa.IConst, Dst: reg, IImm: c.b.Layout().Base(p.Name)})
		c.slots[i] = sSlot{reg: reg, dims: p.Dims}
	}
	return c.block(c.k.Body)
}

func (c *structured) block(blk *frontend.Block) error {
	for _, st := range blk.Stmts {
		if err := c.stmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (c *structured) stmt(st frontend.Stmt) error {
	switch s := st.(type) {
	case *frontend.ForStmt:
		lo, err := c.intExpr(s.Lo)
		if err != nil {
			return err
		}
		hi, err := c.intExpr(s.Hi)
		if err != nil {
			return err
		}
		if _, ok := s.Hi.(*frontend.VarRef); ok {
			// The bound is evaluated once: copy a variable's register, so
			// the body's assignments to the variable do not move it.
			bound := c.b.IReg()
			c.b.Emit(isa.Instr{Op: isa.IMov, Dst: bound, A: hi})
			hi = bound
		}
		iv := c.b.IReg()
		c.b.Emit(isa.Instr{Op: isa.IMov, Dst: iv, A: lo})
		topL := c.b.FreshLabel("for")
		endL := c.b.FreshLabel("endfor")
		c.b.Label(topL)
		c.b.Emit(isa.Instr{Op: isa.BrGE, A: iv, B: hi, Target: endL})
		c.slots[s.Slot].reg = iv
		if err := c.block(s.Body); err != nil {
			return err
		}
		c.b.Emit(isa.Instr{Op: isa.IAddI, Dst: iv, A: iv, IImm: 1})
		c.b.Emit(isa.Instr{Op: isa.Jmp, Target: topL})
		c.b.Label(endL)
		return nil

	case *frontend.WhileStmt:
		topL := c.b.FreshLabel("while")
		endL := c.b.FreshLabel("endwhile")
		c.b.Label(topL)
		if err := c.condBranch(s.Cond, false, endL); err != nil {
			return err
		}
		if err := c.block(s.Body); err != nil {
			return err
		}
		c.b.Emit(isa.Instr{Op: isa.Jmp, Target: topL})
		c.b.Label(endL)
		return nil

	case *frontend.IfStmt:
		elseL := c.b.FreshLabel("else")
		endL := c.b.FreshLabel("endif")
		if err := c.condBranch(s.Cond, false, elseL); err != nil {
			return err
		}
		if err := c.block(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			c.b.Emit(isa.Instr{Op: isa.Jmp, Target: endL})
		}
		c.b.Label(elseL)
		if s.Else != nil {
			if err := c.block(s.Else); err != nil {
				return err
			}
		}
		c.b.Label(endL)
		return nil

	case *frontend.LetStmt:
		return c.scalar(s.Slot, s.Val, true)

	case *frontend.VarArrayStmt:
		// Local arrays live in a dedicated memory region, zero-filled at
		// the declaration point (declaration semantics in loops) by one
		// store per element, so the fill is bounded like FixedSize code.
		n := 1
		for _, d := range s.Dims {
			if d > frontend.MaxSpecNodes/n {
				return &frontend.Error{Pos: s.Pos, Msg: fmt.Sprintf("kcc: var array %s exceeds the budget of %d instructions", s.Name, frontend.MaxSpecNodes)}
			}
			n *= d
		}
		name := fmt.Sprintf("%s$%d", s.Name, s.Slot)
		w := c.b.VecWidth()
		base := c.b.Layout().Add(name, (n+w-1)/w*w)
		reg := c.b.IReg()
		c.b.Emit(isa.Instr{Op: isa.IConst, Dst: reg, IImm: base})
		zero := c.b.FReg()
		c.b.Emit(isa.Instr{Op: isa.SConst, Dst: zero, Imm: 0})
		for i := 0; i < n; i++ {
			c.b.Emit(isa.Instr{Op: isa.SStore, A: reg, IImm: i, B: zero})
		}
		c.slots[s.Slot] = sSlot{reg: reg, dims: s.Dims}
		return nil

	case *frontend.AssignStmt:
		if len(s.Indices) == 0 {
			return c.scalar(s.Slot, s.Val, false)
		}
		addr, err := c.address(s.Slot, s.Indices)
		if err != nil {
			return err
		}
		v, err := c.floatExpr(s.Val)
		if err != nil {
			return err
		}
		c.b.Emit(isa.Instr{Op: isa.SStore, A: addr, IImm: 0, B: v})
		return nil
	}
	return fmt.Errorf("kcc: unknown statement %T", st)
}

// scalar moves the value of val, which Check typed as scalar slot, into
// the slot's register; a declaration first gives the slot a fresh one.
func (c *structured) scalar(slot int, val frontend.Expr, declare bool) error {
	op, eval, fresh := isa.SMov, c.floatExpr, c.b.FReg
	if val.ExprType() == frontend.TypeInt {
		op, eval, fresh = isa.IMov, c.intExpr, c.b.IReg
	}
	r, err := eval(val)
	if err != nil {
		return err
	}
	if declare {
		c.slots[slot].reg = fresh()
	}
	c.b.Emit(isa.Instr{Op: op, Dst: c.slots[slot].reg, A: r})
	return nil
}

// address computes base + flattened index into an i-register for the
// array in slot.
func (c *structured) address(slot int, indices []frontend.Expr) (int, error) {
	info := c.slots[slot]
	idx, err := c.intExpr(indices[0])
	if err != nil {
		return 0, err
	}
	for d := 1; d < len(indices); d++ {
		// idx = idx * dims[d] + indices[d]; the stride multiply stays a
		// runtime operation, as in size-generic library code.
		scaled := c.b.IReg()
		c.b.Emit(isa.Instr{Op: isa.IMulI, Dst: scaled, A: idx, IImm: info.dims[d]})
		next, err := c.intExpr(indices[d])
		if err != nil {
			return 0, err
		}
		sum := c.b.IReg()
		c.b.Emit(isa.Instr{Op: isa.IAdd, Dst: sum, A: scaled, B: next})
		idx = sum
	}
	addr := c.b.IReg()
	c.b.Emit(isa.Instr{Op: isa.IAdd, Dst: addr, A: info.reg, B: idx})
	return addr, nil
}

func (c *structured) intExpr(x frontend.Expr) (int, error) {
	switch v := x.(type) {
	case *frontend.NumLit:
		r := c.b.IReg()
		c.b.Emit(isa.Instr{Op: isa.IConst, Dst: r, IImm: int(v.I)})
		return r, nil
	case *frontend.VarRef:
		return c.slots[v.Slot].reg, nil
	case *frontend.BinExpr:
		l, err := c.intExpr(v.L)
		if err != nil {
			return 0, err
		}
		r, err := c.intExpr(v.R)
		if err != nil {
			return 0, err
		}
		d := c.b.IReg()
		switch v.Op {
		case "+":
			c.b.Emit(isa.Instr{Op: isa.IAdd, Dst: d, A: l, B: r})
		case "-":
			c.b.Emit(isa.Instr{Op: isa.ISub, Dst: d, A: l, B: r})
		case "*":
			c.b.Emit(isa.Instr{Op: isa.IMul, Dst: d, A: l, B: r})
		case "/":
			c.b.Emit(isa.Instr{Op: isa.IDiv, Dst: d, A: l, B: r})
		case "%":
			c.b.Emit(isa.Instr{Op: isa.IMod, Dst: d, A: l, B: r})
		default:
			return 0, fmt.Errorf("kcc: integer operator %q unsupported at runtime", v.Op)
		}
		return d, nil
	case *frontend.UnExpr:
		r, err := c.intExpr(v.X)
		if err != nil {
			return 0, err
		}
		z := c.b.IReg()
		c.b.Emit(isa.Instr{Op: isa.IConst, Dst: z, IImm: 0})
		d := c.b.IReg()
		c.b.Emit(isa.Instr{Op: isa.ISub, Dst: d, A: z, B: r})
		return d, nil
	}
	return 0, fmt.Errorf("kcc: unsupported int expression %T", x)
}

func (c *structured) floatExpr(x frontend.Expr) (int, error) {
	switch v := x.(type) {
	case *frontend.NumLit:
		r := c.b.FReg()
		f := v.F
		if v.IsInt {
			f = float64(v.I)
		}
		c.b.Emit(isa.Instr{Op: isa.SConst, Dst: r, Imm: f})
		return r, nil
	case *frontend.CastExpr:
		// Runtime int→float conversion: move through a const multiply is
		// not expressible; FG3-lite converts via an IAdd trick. Casts of
		// constants are folded; runtime casts are rare in kernels.
		if lit, ok := v.X.(*frontend.NumLit); ok {
			r := c.b.FReg()
			c.b.Emit(isa.Instr{Op: isa.SConst, Dst: r, Imm: float64(lit.I)})
			return r, nil
		}
		return 0, fmt.Errorf("kcc: runtime int→float casts are not supported; use float literals")
	case *frontend.VarRef:
		return c.slots[v.Slot].reg, nil
	case *frontend.IndexExpr:
		addr, err := c.address(v.Slot, v.Indices)
		if err != nil {
			return 0, err
		}
		r := c.b.FReg()
		c.b.Emit(isa.Instr{Op: isa.SLoad, Dst: r, A: addr, IImm: 0})
		return r, nil
	case *frontend.BinExpr:
		l, err := c.floatExpr(v.L)
		if err != nil {
			return 0, err
		}
		r, err := c.floatExpr(v.R)
		if err != nil {
			return 0, err
		}
		d := c.b.FReg()
		c.b.Emit(isa.Instr{Op: arithOps[v.Op], Dst: d, A: l, B: r})
		return d, nil
	case *frontend.UnExpr:
		r, err := c.floatExpr(v.X)
		if err != nil {
			return 0, err
		}
		d := c.b.FReg()
		c.b.Emit(isa.Instr{Op: isa.SNeg, Dst: d, A: r})
		return d, nil
	case *frontend.CallExpr:
		args := make([]int, len(v.Args))
		for i, a := range v.Args {
			r, err := c.floatExpr(a)
			if err != nil {
				return 0, err
			}
			args[i] = r
		}
		d := c.b.FReg()
		switch v.Name {
		case "sqrt":
			c.b.Emit(isa.Instr{Op: isa.SSqrt, Dst: d, A: args[0]})
		case "abs":
			c.b.Emit(isa.Instr{Op: isa.SAbs, Dst: d, A: args[0]})
		case "sgn":
			c.b.Emit(isa.Instr{Op: isa.SSgn, Dst: d, A: args[0]})
		default:
			c.b.Emit(isa.Instr{Op: isa.CallFn, Dst: d, Sym: v.Name, Args: args})
		}
		return d, nil
	}
	return 0, fmt.Errorf("kcc: unsupported float expression %T", x)
}

// condBranch emits a branch to target when the condition evaluates to
// `jumpIf`. Short-circuit && and || are compiled structurally.
func (c *structured) condBranch(cond frontend.Expr, jumpIf bool, target string) error {
	switch v := cond.(type) {
	case *frontend.BinExpr:
		switch v.Op {
		case "&&":
			if jumpIf {
				// jump to target iff both true: skip around when left false.
				skip := c.b.FreshLabel("and")
				if err := c.condBranch(v.L, false, skip); err != nil {
					return err
				}
				if err := c.condBranch(v.R, true, target); err != nil {
					return err
				}
				c.b.Label(skip)
				return nil
			}
			// jump to target iff any false.
			if err := c.condBranch(v.L, false, target); err != nil {
				return err
			}
			return c.condBranch(v.R, false, target)
		case "||":
			if jumpIf {
				if err := c.condBranch(v.L, true, target); err != nil {
					return err
				}
				return c.condBranch(v.R, true, target)
			}
			skip := c.b.FreshLabel("or")
			if err := c.condBranch(v.L, true, skip); err != nil {
				return err
			}
			if err := c.condBranch(v.R, false, target); err != nil {
				return err
			}
			c.b.Label(skip)
			return nil
		case "<", "<=", ">", ">=", "==", "!=":
			return c.cmpBranch(v, jumpIf, target)
		}
	case *frontend.UnExpr:
		if v.Op == "!" {
			return c.condBranch(v.X, !jumpIf, target)
		}
	}
	return fmt.Errorf("kcc: unsupported condition %T", cond)
}

func (c *structured) cmpBranch(v *frontend.BinExpr, jumpIf bool, target string) error {
	isFloat := v.L.ExprType() == frontend.TypeFloat
	if isFloat && (v.Op == "==" || v.Op == "!=") {
		return fmt.Errorf("kcc: float equality comparisons are not supported; compare with < or >")
	}
	op, swap := branchFor(v.Op, jumpIf, isFloat)
	var l, r int
	var err error
	if isFloat {
		l, err = c.floatExpr(v.L)
		if err != nil {
			return err
		}
		r, err = c.floatExpr(v.R)
		if err != nil {
			return err
		}
	} else {
		l, err = c.intExpr(v.L)
		if err != nil {
			return err
		}
		r, err = c.intExpr(v.R)
		if err != nil {
			return err
		}
	}
	if swap {
		l, r = r, l
	}
	c.b.Emit(isa.Instr{Op: op, A: l, B: r, Target: target})
	return nil
}

// branchFor maps (comparison, polarity, type) to a branch opcode, possibly
// with swapped operands.
func branchFor(op string, jumpIf, isFloat bool) (isa.Opcode, bool) {
	if !jumpIf {
		// jump when condition is FALSE: invert the comparison.
		switch op {
		case "<":
			op = ">="
		case "<=":
			op = ">"
		case ">":
			op = "<="
		case ">=":
			op = "<"
		case "==":
			op = "!="
		default:
			op = "=="
		}
	}
	if isFloat {
		switch op {
		case "<":
			return isa.BrLTF, false
		case ">":
			return isa.BrLTF, true
		case "<=":
			return isa.BrGEF, true
		default: // ">="
			return isa.BrGEF, false
		}
	}
	switch op {
	case "<":
		return isa.BrLT, false
	case ">":
		return isa.BrLT, true
	case "<=":
		return isa.BrGE, true
	case ">=":
		return isa.BrGE, false
	case "==":
		return isa.BrEQ, false
	default:
		return isa.BrNE, false
	}
}
