package validate

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"diospyros/internal/expr"
	"diospyros/internal/kernel"
)

// Check validates that the optimized program computes the specification's
// outputs: it first runs the exact equivalence decision; if the kernel's
// normal form is too large (ErrInconclusive), it falls back to randomized
// differential testing, mirroring how the paper treats validation as an
// optional, best-effort safety net outside the trusted core.
func Check(l *kernel.Lifted, optimized *expr.Expr) error {
	return NewChecker(l).Check(optimized)
}

// Equivalent decides, over the theory of real arithmetic, whether the
// first n output elements of the two programs are equal for all inputs.
// sqrt, sgn, and user functions are uninterpreted (keyed by canonicalized
// arguments), exactly as in the paper's validator: programs that are equal
// only because of special function semantics are reported inequivalent.
func Equivalent(spec, optimized *expr.Expr, n int) error {
	return newChecker(spec, n).Equivalent(optimized)
}

// Checker validates any number of programs against one specification,
// normalizing each spec lane at most once. It is meant for the targets of
// one compile; a Checker is not safe for concurrent use.
type Checker struct {
	l     *kernel.Lifted // nil when built by Equivalent; needed for fallback
	n     int
	atoms *atoms
	// The spec's lanes and their normalizer. Lane normal forms are filled
	// in lazily, the first time Equivalent reaches each lane.
	lanes    []specLane
	lanesErr error
	specNorm *normalizer
}

// specLane is one spec output and, once computed, its normal form or the
// error normalizing it gave.
type specLane struct {
	e    *expr.Expr
	nf   ratfn
	err  error
	done bool
}

// NewChecker prepares a Checker for the kernel's specification.
func NewChecker(l *kernel.Lifted) *Checker {
	c := newChecker(l.Spec, l.OutputLen())
	c.l = l
	return c
}

func newChecker(spec *expr.Expr, n int) *Checker {
	at := newAtoms()
	c := &Checker{n: n, atoms: at, specNorm: newNormalizer(at)}
	var es []*expr.Expr
	if es, c.lanesErr = Lanes(spec); c.lanesErr == nil {
		c.lanes = make([]specLane, len(es))
		for i, e := range es {
			c.lanes[i].e = e
		}
	}
	return c
}

// Check validates optimized like the package-level Check, reusing the
// spec normal forms earlier calls computed.
func (c *Checker) Check(optimized *expr.Expr) error {
	err := c.Equivalent(optimized)
	if errors.Is(err, ErrInconclusive) && c.l != nil {
		return Randomized(c.l, optimized, 64, 1)
	}
	return err
}

// Equivalent decides like the package-level Equivalent whether the first
// n outputs of optimized equal the spec's. It stops at the first lane that
// differs or cannot be normalized.
func (c *Checker) Equivalent(optimized *expr.Expr) error {
	if c.lanesErr != nil {
		return fmt.Errorf("validate: spec: %w", c.lanesErr)
	}
	optLanes, err := Lanes(optimized)
	if err != nil {
		return fmt.Errorf("validate: optimized program: %w", err)
	}
	if len(c.lanes) < c.n || len(optLanes) < c.n {
		return fmt.Errorf("validate: need %d outputs; spec has %d, optimized has %d",
			c.n, len(c.lanes), len(optLanes))
	}
	// The optimized program's normal forms are not kept past this call;
	// only the atom table, whose keys are canonical, is shared with the spec.
	optNorm := newNormalizer(c.atoms)
	for i := 0; i < c.n; i++ {
		sl := &c.lanes[i]
		if !sl.done {
			sl.nf, sl.err = c.specNorm.norm(sl.e)
			sl.done = true
		}
		if sl.err != nil {
			return sl.err
		}
		b, err := optNorm.norm(optLanes[i])
		if err != nil {
			return err
		}
		eq, err := rfEqual(sl.nf, b)
		if err != nil {
			return err
		}
		if !eq {
			return fmt.Errorf("validate: output %d differs:\n  spec: %s\n  opt:  %s",
				i, sl.e, optLanes[i])
		}
	}
	return nil
}

// Lanes flattens a program into one scalar expression per output element,
// expanding vector operations lane-wise. A vector subterm shared in the
// program's DAG expands once, so its lanes are shared pointers too, which
// the normalizer's memo then hits.
func Lanes(e *expr.Expr) ([]*expr.Expr, error) {
	return laneMemo{}.lanes(e)
}

// laneMemo maps each expanded subterm to its lanes. A memoized slice is
// shared by every use, so it is never appended to or modified.
type laneMemo map[*expr.Expr][]*expr.Expr

func (lm laneMemo) lanes(e *expr.Expr) ([]*expr.Expr, error) {
	if ls, ok := lm[e]; ok {
		return ls, nil
	}
	ls, err := lm.expand(e)
	if err != nil {
		return nil, err
	}
	lm[e] = ls
	return ls, nil
}

func (lm laneMemo) expand(e *expr.Expr) ([]*expr.Expr, error) {
	switch e.Op {
	case expr.OpList, expr.OpVec:
		var out []*expr.Expr
		for _, a := range e.Args {
			ls, err := lm.lanes(a)
			if err != nil {
				return nil, err
			}
			out = append(out, ls...)
		}
		return out, nil
	case expr.OpConcat:
		l, err := lm.lanes(e.Args[0])
		if err != nil {
			return nil, err
		}
		r, err := lm.lanes(e.Args[1])
		if err != nil {
			return nil, err
		}
		return append(append(make([]*expr.Expr, 0, len(l)+len(r)), l...), r...), nil
	case expr.OpVecAdd, expr.OpVecMinus, expr.OpVecMul, expr.OpVecDiv:
		sop, _ := e.Op.ScalarEquivalent()
		a, err := lm.lanes(e.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := lm.lanes(e.Args[1])
		if err != nil {
			return nil, err
		}
		if len(a) != len(b) {
			return nil, fmt.Errorf("lane mismatch in %s: %d vs %d", e.Op, len(a), len(b))
		}
		out := make([]*expr.Expr, len(a))
		for i := range a {
			out[i] = &expr.Expr{Op: sop, Args: []*expr.Expr{a[i], b[i]}}
		}
		return out, nil
	case expr.OpVecMAC:
		acc, err := lm.lanes(e.Args[0])
		if err != nil {
			return nil, err
		}
		b, err := lm.lanes(e.Args[1])
		if err != nil {
			return nil, err
		}
		c, err := lm.lanes(e.Args[2])
		if err != nil {
			return nil, err
		}
		if len(acc) != len(b) || len(b) != len(c) {
			return nil, fmt.Errorf("lane mismatch in VecMAC")
		}
		out := make([]*expr.Expr, len(acc))
		for i := range acc {
			out[i] = expr.Add(acc[i], expr.Mul(b[i], c[i]))
		}
		return out, nil
	case expr.OpVecNeg, expr.OpVecSqrt, expr.OpVecSgn:
		sop, _ := e.Op.ScalarEquivalent()
		a, err := lm.lanes(e.Args[0])
		if err != nil {
			return nil, err
		}
		out := make([]*expr.Expr, len(a))
		for i := range a {
			out[i] = &expr.Expr{Op: sop, Args: []*expr.Expr{a[i]}}
		}
		return out, nil
	case expr.OpVecFunc:
		var argLanes [][]*expr.Expr
		n := -1
		for _, a := range e.Args {
			ls, err := lm.lanes(a)
			if err != nil {
				return nil, err
			}
			if n == -1 {
				n = len(ls)
			} else if len(ls) != n {
				return nil, fmt.Errorf("lane mismatch in VecFunc %s", e.Sym)
			}
			argLanes = append(argLanes, ls)
		}
		out := make([]*expr.Expr, n)
		for i := 0; i < n; i++ {
			args := make([]*expr.Expr, len(argLanes))
			for j := range argLanes {
				args[j] = argLanes[j][i]
			}
			out[i] = expr.Func(e.Sym, args...)
		}
		return out, nil
	default:
		// A scalar expression is a single lane.
		return []*expr.Expr{e}, nil
	}
}

type normalizer struct {
	atoms *atoms
	memo  map[*expr.Expr]ratfn
}

func newNormalizer(at *atoms) *normalizer {
	return &normalizer{atoms: at, memo: map[*expr.Expr]ratfn{}}
}

func (nm *normalizer) norm(e *expr.Expr) (ratfn, error) {
	if r, ok := nm.memo[e]; ok {
		return r, nil
	}
	r, err := nm.normUncached(e)
	if err != nil {
		return ratfn{}, err
	}
	nm.memo[e] = r
	return r, nil
}

func (nm *normalizer) normUncached(e *expr.Expr) (ratfn, error) {
	switch e.Op {
	case expr.OpLit:
		r := new(big.Rat)
		if _, ok := r.SetString(fmt.Sprintf("%g", e.Lit)); !ok {
			r.SetFloat64(e.Lit)
		}
		return rfConst(r), nil
	case expr.OpSym:
		return rfAtom(nm.atoms.id("sym:" + e.Sym)), nil
	case expr.OpGet:
		return rfAtom(nm.atoms.id(fmt.Sprintf("get:%s:%d", e.Sym, e.Idx))), nil
	case expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv:
		a, err := nm.norm(e.Args[0])
		if err != nil {
			return ratfn{}, err
		}
		b, err := nm.norm(e.Args[1])
		if err != nil {
			return ratfn{}, err
		}
		switch e.Op {
		case expr.OpAdd:
			return rfAdd(a, b)
		case expr.OpSub:
			return rfSub(a, b)
		case expr.OpMul:
			return rfMul(a, b)
		default:
			return rfDiv(a, b)
		}
	case expr.OpNeg:
		a, err := nm.norm(e.Args[0])
		if err != nil {
			return ratfn{}, err
		}
		return rfNeg(a), nil
	case expr.OpSqrt, expr.OpSgn:
		a, err := nm.norm(e.Args[0])
		if err != nil {
			return ratfn{}, err
		}
		return rfAtom(nm.atoms.id(e.Op.String() + "(" + a.canon() + ")")), nil
	case expr.OpFunc:
		key := "fn:" + e.Sym + "("
		for i, arg := range e.Args {
			a, err := nm.norm(arg)
			if err != nil {
				return ratfn{}, err
			}
			if i > 0 {
				key += ","
			}
			key += a.canon()
		}
		key += ")"
		return rfAtom(nm.atoms.id(key)), nil
	}
	return ratfn{}, fmt.Errorf("validate: cannot normalize %s (vector op in scalar position?)", e.Op)
}

// Randomized differentially tests the two programs on random inputs drawn
// per the kernel's declared shapes. It is used when the exact check is
// inconclusive and directly by tests.
func Randomized(l *kernel.Lifted, optimized *expr.Expr, trials int, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	n := l.OutputLen()
	for trial := 0; trial < trials; trial++ {
		env := expr.NewEnv()
		for _, d := range l.Inputs {
			arr := make([]float64, d.Len())
			for i := range arr {
				arr[i] = r.Float64()*4 - 2
			}
			env.Arrays[d.Name] = arr
		}
		want, err := l.Spec.Eval(env)
		if err != nil {
			return fmt.Errorf("validate: spec eval: %w", err)
		}
		got, err := optimized.Eval(env)
		if err != nil {
			return fmt.Errorf("validate: optimized eval: %w", err)
		}
		ws, gs := want.AsSlice(), got.AsSlice()
		if len(ws) < n || len(gs) < n {
			return fmt.Errorf("validate: output count mismatch: spec %d, optimized %d, need %d", len(ws), len(gs), n)
		}
		for i := 0; i < n; i++ {
			if !closeEnough(ws[i], gs[i]) {
				return fmt.Errorf("validate: trial %d output %d: spec %g, optimized %g", trial, i, ws[i], gs[i])
			}
		}
	}
	return nil
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-6*math.Max(scale, 1)
}
