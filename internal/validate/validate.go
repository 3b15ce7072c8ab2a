// Package validate implements translation validation (paper §3.4): it
// decides whether the extracted vector program computes the scalar
// specification's outputs over the reals, with sqrt, sgn, and user
// functions uninterpreted, as the paper's Rosette/SMT validator does.
//
// The decision is polynomial identity testing (Schwartz–Zippel) over
// GF(p), p = 2^61−1. Each output element is a formal rational function of
// the inputs and of its opaque terms (sqrt, sgn, and function
// applications). Both programs are evaluated at a seeded random point: an
// input element is a random residue, a literal the residue of the decimal
// its %g text denotes (so 0.1 + 0.2 = 0.3), division multiplies by the
// inverse, and an opaque term is a seeded random function of its head and
// argument residues. Values are one residue per lane, memoized per DAG
// node, with (numerator, denominator) degree bounds, so each verdict comes
// with its per-trial error bound. Two trials from a fixed seed keep
// verdicts deterministic and square the bound.
package validate

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"strconv"
	"strings"

	"diospyros/internal/expr"
	"diospyros/internal/kernel"
)

const (
	p       = 1<<61 - 1             // the field's modulus, a Mersenne prime
	trials  = 2                     // independent points a program must agree at
	redraws = 4                     // new points a trial draws when a divisor vanishes
	seed    = 0x6469_6f73_7079_726f // fixes every point and opaque function
	golden  = 0x9e37_79b9_7f4a_7c15 // 2^64 over the golden ratio, to spread indices
)

// Check validates that the optimized program computes the specification's
// outputs: it is NewChecker(l).Check(optimized).
func Check(l *kernel.Lifted, optimized *expr.Expr) error {
	return NewChecker(l).Check(optimized)
}

// Equivalent decides whether the first n output elements of the two
// programs are equal over the reals for all inputs, with sqrt, sgn, and
// user functions uninterpreted: programs equal only because of those
// functions' meaning (sqrt(x)·sqrt(x) = x) are reported inequivalent.
func Equivalent(spec, optimized *expr.Expr, n int) error {
	return newChecker(spec, n).Check(optimized)
}

// Checker validates any number of programs against one specification,
// evaluating the spec at most once per point. It is meant for the targets
// of one compile; a Checker is not safe for concurrent use.
type Checker struct {
	spec *expr.Expr
	n    int
	// points holds the spec at point trial*(redraws+1)+redraw, filled the
	// first time a program reaches that point.
	points [trials * (redraws + 1)]specPoint
	ev     evaluator // scratch for every evaluation, spec and program
}

// specPoint is the spec at one point: its lanes and opaque terms, or the
// error evaluating it gave.
type specPoint struct {
	lanes  []lane
	opaque map[uint64]uint64
	err    error
	done   bool
}

// NewChecker prepares a Checker for the kernel's specification.
func NewChecker(l *kernel.Lifted) *Checker {
	return newChecker(l.Spec, l.OutputLen())
}

func newChecker(spec *expr.Expr, n int) *Checker {
	return &Checker{spec: spec, n: n}
}

// Check reports nil when optimized computes the spec's first n outputs,
// and otherwise an error naming the first output that differs or why the
// programs could not be evaluated.
func (c *Checker) Check(optimized *expr.Expr) error {
	_, err := c.CheckBound(optimized)
	return err
}

// CheckBound is Check that also returns, on success, the per-trial error
// bound: the probability, over one trial's random point, that a program
// whose outputs differ from the spec's agrees with it there. The verdict
// holds with probability at least 1 − bound^trials.
func (c *Checker) CheckBound(optimized *expr.Expr) (float64, error) {
	var bound float64
	for t := 0; t < trials; t++ {
		b, err := c.checkAt(optimized, t*(redraws+1))
		for r := 1; r <= redraws && err == errZeroDenominator; r++ {
			b, err = c.checkAt(optimized, t*(redraws+1)+r)
		}
		if err == errZeroDenominator {
			return 0, errors.New("validate: division by syntactic zero")
		} else if err != nil {
			return 0, err
		}
		bound = max(bound, b)
	}
	return bound, nil
}

// errZeroDenominator asks the trial to draw another point.
var errZeroDenominator = errors.New("validate: denominator vanishes at the point")

// checkAt compares the first n outputs at point pt and returns the bound.
func (c *Checker) checkAt(optimized *expr.Expr, pt int) (float64, error) {
	sp := &c.points[pt]
	if !sp.done {
		s, err := c.ev.run(c.spec, pointSeed(pt), "spec")
		if err == nil {
			sp.lanes = append([]lane(nil), c.ev.lanes[s.off:s.off+s.n]...)
			sp.opaque = maps.Clone(c.ev.opaque)
		}
		sp.err, sp.done = err, true
	}
	if sp.err != nil {
		return 0, sp.err
	}
	s, err := c.ev.run(optimized, pointSeed(pt), "optimized program")
	if err != nil {
		return 0, err
	}
	got := c.ev.lanes[s.off : s.off+s.n]
	if len(sp.lanes) < c.n || len(got) < c.n {
		return 0, fmt.Errorf("validate: need %d outputs; spec has %d, optimized has %d",
			c.n, len(sp.lanes), len(got))
	}
	// A lane difference is N1·D2 − N2·D1; it vanishes at a random point
	// with probability at most its degree over p.
	var deg uint64
	for i, a := range sp.lanes[:c.n] {
		b := got[i]
		if a.v != b.v {
			return 0, fmt.Errorf("validate: output %d differs", i)
		}
		deg = max(deg, dadd(a.num, b.den), dadd(b.num, a.den))
	}
	return bound(deg, sp.opaque, c.ev.opaque), nil
}

// lane is one scalar value: its residue v at the point and bounds on the
// degrees of the numerator and denominator of its formal rational function,
// in which an opaque term counts as one variable.
type lane struct{ v, num, den uint64 }

// span is a node's lanes in evaluator.lanes.
type span struct{ off, n int }

// bound is the per-trial bound for lanes whose difference has degree deg,
// given the opaque terms of the two programs (value residue → argument
// degree, see evaluator.opaque). Two terms with formally different
// arguments share a value only if their argument residues collide, with
// probability at most the sum of their argument degrees over p; summed
// over all k(k−1)/2 pairs of k terms, that is (k−1)·Σdeg/p.
func bound(deg uint64, spec, opt map[uint64]uint64) float64 {
	k, sum := 0.0, 0.0
	for _, d := range spec {
		k, sum = k+1, sum+float64(d)
	}
	for v, d := range opt {
		if _, ok := spec[v]; !ok {
			k, sum = k+1, sum+float64(d)
		}
	}
	return min(1, (float64(deg)+max(k-1, 0)*sum)/p)
}

// evaluator evaluates programs at one point. Its memo and lane arena are
// reused by every run.
type evaluator struct {
	seed  uint64
	memo  expr.Memo[span]
	lanes []lane
	// opaque maps each opaque term's value to its argument degree
	// (numerator plus denominator, summed over arguments). Applications
	// with one value count as one term: they are one unless their
	// arguments collide, the event the bound covers, so the reported
	// bound can be low only with probability below itself.
	opaque map[uint64]uint64
}

// run evaluates e, the program named what, at the point seed and returns
// its lanes.
func (ev *evaluator) run(e *expr.Expr, seed uint64, what string) (span, error) {
	ev.seed = seed
	ev.memo.Reset()
	clear(ev.opaque)
	ev.lanes = ev.lanes[:0]
	s, err := ev.memo.Fold(e, ev.node)
	if err != nil && err != errZeroDenominator {
		err = fmt.Errorf("validate: %s: %w", what, err)
	}
	return s, err
}

// node evaluates e given its operands' lanes as; the memo calls it once
// per distinct node.
func (ev *evaluator) node(e *expr.Expr, as []span) (span, error) {
	off := len(ev.lanes)
	switch e.Op {
	case expr.OpLit:
		v, err := litResidue(e.Lit)
		ev.lanes = append(ev.lanes, lane{v: v})
		return span{off, 1}, err
	case expr.OpSym, expr.OpGet:
		ev.lanes = append(ev.lanes, lane{v: ev.coord(e.Op, e.Sym, e.Idx), num: 1})
		return span{off, 1}, nil
	}
	// Vector ops need equal lane counts, scalar ops scalar operands.
	concat := e.Op == expr.OpVec || e.Op == expr.OpList || e.Op == expr.OpConcat
	for i, a := range e.Args {
		if !e.Op.IsVector() && a.Op.IsVector() {
			return span{}, fmt.Errorf("vector op %s in scalar position", a.Op)
		}
		if i > 0 && !concat && as[i].n != as[0].n {
			return span{}, fmt.Errorf("lane mismatch in %s: %d vs %d", e.Op, as[0].n, as[i].n)
		}
	}
	n := 1
	if len(as) > 0 {
		n = as[0].n
	}
	// op is the scalar operator a vector op applies lane by lane.
	op := e.Op
	if s, ok := op.ScalarEquivalent(); ok {
		op = s
	}
	switch e.Op {
	case expr.OpVec, expr.OpList, expr.OpConcat:
		for _, a := range as {
			ev.lanes = append(ev.lanes, ev.lanes[a.off:a.off+a.n]...)
		}
		return span{off, len(ev.lanes) - off}, nil
	case expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv, expr.OpNeg,
		expr.OpVecAdd, expr.OpVecMinus, expr.OpVecMul, expr.OpVecDiv, expr.OpVecNeg, expr.OpVecMAC:
		for i := 0; i < n; i++ {
			var b lane
			if len(as) > 1 {
				b = ev.lanes[as[1].off+i]
			}
			if e.Op == expr.OpVecMAC {
				b, _ = arith(expr.OpMul, b, ev.lanes[as[2].off+i])
				op = expr.OpAdd
			}
			l, ok := arith(op, ev.lanes[as[0].off+i], b)
			if !ok {
				return span{}, errZeroDenominator
			}
			ev.lanes = append(ev.lanes, l)
		}
		return span{off, n}, nil
	case expr.OpSqrt, expr.OpSgn, expr.OpFunc, expr.OpVecSqrt, expr.OpVecSgn, expr.OpVecFunc:
		head := uint64(op)
		if op == expr.OpFunc {
			head = hashString(e.Sym) ^ uint64(len(e.Args))
		}
		for i := 0; i < n; i++ {
			ev.opaqueLane(head, as, i)
		}
		return span{off, n}, nil
	}
	return span{}, fmt.Errorf("cannot evaluate %s", e.Op)
}

// arith applies a scalar arithmetic operator to lanes; ok is false when a
// divisor vanishes at the point.
func arith(op expr.Op, a, b lane) (l lane, ok bool) {
	switch op {
	case expr.OpNeg:
		return lane{sub(0, a.v), a.num, a.den}, true
	case expr.OpMul:
		return lane{mul(a.v, b.v), dadd(a.num, b.num), dadd(a.den, b.den)}, true
	case expr.OpDiv:
		if b.v == 0 {
			return lane{}, false
		}
		return lane{mul(a.v, inv(b.v)), dadd(a.num, b.den), dadd(a.den, b.num)}, true
	}
	// Na/Da ± Nb/Db = (Na·Db ± Nb·Da) / (Da·Db).
	v := add(a.v, b.v)
	if op == expr.OpSub {
		v = sub(a.v, b.v)
	}
	return lane{v, max(dadd(a.num, b.den), dadd(b.num, a.den)), dadd(a.den, b.den)}, true
}

// opaqueLane emits lane i of an opaque application: a random function of
// the head and the argument residues, one new variable of degree 1.
func (ev *evaluator) opaqueLane(head uint64, args []span, i int) {
	h := mix(ev.seed ^ mix(head))
	var deg uint64
	for _, a := range args {
		l := ev.lanes[a.off+i]
		h = mix(h + l.v*golden)
		deg = dadd(deg, dadd(l.num, l.den))
	}
	v := residue(h)
	if ev.opaque == nil {
		ev.opaque = map[uint64]uint64{}
	}
	if _, ok := ev.opaque[v]; !ok {
		ev.opaque[v] = deg
	}
	ev.lanes = append(ev.lanes, lane{v: v, num: 1})
}

// dadd adds degree bounds, saturating at p (a bound of 1).
func dadd(a, b uint64) uint64 { return min(a+b, p) }

// litResidue maps a literal to the residue of the decimal its %g text
// denotes: %g prints the shortest decimal digits d, so the literal is
// d·10^exp, and 10 is invertible mod p.
func litResidue(x float64) (uint64, error) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return 0, fmt.Errorf("non-finite literal %g", x)
	}
	mant, e, _ := strings.Cut(strconv.FormatFloat(math.Abs(x), 'e', -1, 64), "e")
	exp, _ := strconv.Atoi(e)
	if _, frac, ok := strings.Cut(mant, "."); ok {
		exp -= len(frac)
	}
	// At most 17 digits, so d < 10^17 < p.
	d, _ := strconv.ParseUint(strings.Replace(mant, ".", "", 1), 10, 64)
	scale := pow(10, uint64(max(exp, -exp)))
	if exp < 0 {
		scale = inv(scale)
	}
	v := mul(d, scale)
	if x < 0 {
		v = sub(0, v)
	}
	return v, nil
}

// coord is the random residue of a symbol or input element at the point.
func (ev *evaluator) coord(op expr.Op, sym string, idx int) uint64 {
	return residue(mix(mix(ev.seed^hashString(sym)^uint64(op)) + uint64(idx)*golden))
}

// pointSeed is the seed of point i.
func pointSeed(i int) uint64 { return mix(seed + uint64(i)*golden) }

// hashString is FNV-1a of s.
func hashString(s string) uint64 {
	h := uint64(0xcbf2_9ce4_8422_2325)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100_0000_01b3
	}
	return h
}

// mix is the SplitMix64 finalizer, a bijection that scrambles every bit.
func mix(h uint64) uint64 {
	h = (h ^ h>>30) * 0xbf58_476d_1ce4_e5b9
	h = (h ^ h>>27) * 0x94d0_49bb_1331_11eb
	return h ^ h>>31
}

// residue maps 64 random bits to a residue mod p.
func residue(h uint64) uint64 { return h & p % p }

func add(a, b uint64) uint64 { return (a + b) % p }

func sub(a, b uint64) uint64 { return (a + p - b) % p }

// mul reduces the 122-bit product with 2^61 ≡ 1 (mod p).
func mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	s := lo&p + lo>>61 + hi<<3
	return (s&p + s>>61) % p
}

func pow(a, e uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = mul(r, a)
		}
		a = mul(a, a)
	}
	return r
}

// inv is the inverse of a nonzero residue (Fermat: a^(p−2)).
func inv(a uint64) uint64 { return pow(a, p-2) }
