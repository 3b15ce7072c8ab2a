package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses an s-expression in the syntax produced by (*Expr).String.
// It accepts the full vector DSL of Figure 3.
func Parse(src string) (*Expr, error) {
	p := &sexpParser{src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("expr: trailing input at offset %d", p.pos)
	}
	return e, nil
}

// MustParse is Parse but panics on error; it is intended for tests and
// package-internal constant expressions.
func MustParse(src string) *Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type sexpParser struct {
	src string
	pos int
}

func (p *sexpParser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ';' { // comment to end of line
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		p.pos++
	}
}

func (p *sexpParser) parseExpr() (*Expr, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("expr: unexpected end of input")
	}
	if p.src[p.pos] == '(' {
		p.pos++
		return p.parseForm()
	}
	tok := p.token()
	if tok == "" {
		return nil, fmt.Errorf("expr: unexpected character %q at offset %d", p.src[p.pos], p.pos)
	}
	if v, err := strconv.ParseFloat(tok, 64); err == nil {
		return Lit(v), nil
	}
	return Sym(tok), nil
}

func (p *sexpParser) token() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '(' || c == ')' || unicode.IsSpace(rune(c)) {
			break
		}
		p.pos++
	}
	return p.src[start:p.pos]
}

var headOps = func() map[string]Op {
	m := map[string]Op{}
	for op := Op(0); op < NumOps; op++ {
		m[op.String()] = op
	}
	return m
}()

func (p *sexpParser) parseForm() (*Expr, error) {
	p.skipSpace()
	head := p.token()
	if head == "" {
		return nil, fmt.Errorf("expr: empty form head at offset %d", p.pos)
	}
	op, ok := headOps[head]
	if !ok {
		return nil, fmt.Errorf("expr: unknown operator %q", head)
	}
	e := &Expr{Op: op}
	switch op {
	case OpGet:
		p.skipSpace()
		e.Sym = p.token()
		if e.Sym == "" {
			return nil, fmt.Errorf("expr: Get missing array name")
		}
		p.skipSpace()
		idxTok := p.token()
		idx, err := strconv.Atoi(idxTok)
		if err != nil {
			return nil, fmt.Errorf("expr: Get index %q: %v", idxTok, err)
		}
		e.Idx = idx
	case OpFunc, OpVecFunc:
		p.skipSpace()
		e.Sym = p.token()
		if e.Sym == "" {
			return nil, fmt.Errorf("expr: %s missing function name", op)
		}
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		e.Args = args
	case OpLit, OpSym:
		return nil, fmt.Errorf("expr: %q is not a form head", head)
	default:
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		e.Args = args
	}
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != ')' {
		return nil, fmt.Errorf("expr: missing ')' for %s", head)
	}
	p.pos++
	if err := CheckArity(e.Op, len(e.Args)); err != nil {
		return nil, fmt.Errorf("expr: %w", err)
	}
	return e, nil
}

func (p *sexpParser) parseArgs() ([]*Expr, error) {
	var args []*Expr
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("expr: unexpected end of input in form")
		}
		if p.src[p.pos] == ')' {
			return args, nil
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
}

// Arity returns the required argument count for fixed-arity operators and -1
// for variadic operators (Vec, List, Func, VecFunc).
func Arity(op Op) int {
	switch op {
	case OpLit, OpSym, OpGet:
		return 0
	case OpNeg, OpSqrt, OpSgn, OpVecNeg, OpVecSqrt, OpVecSgn:
		return 1
	case OpAdd, OpSub, OpMul, OpDiv, OpConcat,
		OpVecAdd, OpVecMinus, OpVecMul, OpVecDiv:
		return 2
	case OpVecMAC:
		return 3
	default:
		return -1
	}
}

// CheckArity reports whether op may take n arguments: exactly Arity(op)
// for a fixed-arity operator, at least one for Vec, List and VecFunc, any
// number for Func. Parse and egraph's pattern reader both apply it.
func CheckArity(op Op, n int) error {
	if want := Arity(op); want >= 0 && n != want {
		return fmt.Errorf("%s expects %d args, got %d", op, want, n)
	}
	if (op == OpVec || op == OpList || op == OpVecFunc) && n == 0 {
		return fmt.Errorf("%s expects at least one arg", op)
	}
	return nil
}

// Dump renders an expression as a let-bound DAG, for diagnostics and the
// compiler's -dump-spec flag. Every compound subterm the DAG shares (one
// *Expr under more than one parent) is printed once, as "let %k = ..."
// after the lets it uses, and is named %k wherever it occurs, so the output
// is linear in the DAG's nodes while the tree it denotes can be
// exponentially larger. A term of at most 8 nodes, counting a name as one,
// prints on one line; a larger one puts each argument on its own, indented
// line.
func Dump(e *Expr) string {
	d := dumper{uses: map[*Expr]int{}, names: map[*Expr]int{}}
	var m Memo[struct{}]
	m.Fold(e, func(x *Expr, _ []struct{}) (struct{}, error) {
		for _, a := range x.Args {
			if !leaf(a) {
				d.uses[a]++
			}
		}
		return struct{}{}, nil
	})
	// A second fold meets the nodes in the same order, each after its
	// arguments, so a shared node's let follows the lets it uses.
	m.Reset()
	m.Fold(e, func(x *Expr, _ []struct{}) (struct{}, error) {
		if d.uses[x] > 1 {
			k := len(d.names)
			d.term(x, 0, fmt.Sprintf("let %%%d = ", k))
			d.names[x] = k
		}
		return struct{}{}, nil
	})
	d.term(e, 0, "")
	return d.b.String()
}

// dumper is the state of one Dump.
type dumper struct {
	b     strings.Builder
	uses  map[*Expr]int // parents of each compound node
	names map[*Expr]int // the let number of each shared node printed so far
}

// leaf reports whether e prints as itself, never named: a literal, a
// symbol or an array element.
func leaf(e *Expr) bool { return e == nil || e.Op == OpLit || e.Op == OpSym || e.Op == OpGet }

// term prints e as one or more lines at depth, the first one after
// prefix: by name once it has one, on one line when small, else with an
// argument per indented line.
func (d *dumper) term(e *Expr, depth int, prefix string) {
	indent := strings.Repeat("  ", depth)
	d.b.WriteString(indent + prefix)
	if d.size(e, 8) <= 8 {
		d.inline(e)
		d.b.WriteByte('\n')
		return
	}
	d.b.WriteString("(" + head(e) + "\n")
	for _, a := range e.Args {
		d.term(a, depth+1, "")
	}
	d.b.WriteString(indent + ")\n")
}

// inline prints e on the current line: by name once it has one.
func (d *dumper) inline(e *Expr) {
	if k, named := d.names[e]; named {
		fmt.Fprintf(&d.b, "%%%d", k)
		return
	}
	if leaf(e) {
		e.write(&d.b)
		return
	}
	d.b.WriteString("(" + head(e))
	for _, a := range e.Args {
		d.b.WriteByte(' ')
		d.inline(a)
	}
	d.b.WriteByte(')')
}

// size counts the nodes term prints for e, a name or a leaf as one,
// stopping once the count passes limit.
func (d *dumper) size(e *Expr, limit int) int {
	if _, named := d.names[e]; named || leaf(e) {
		return 1
	}
	n := 1
	for _, a := range e.Args {
		if n += d.size(a, limit-n); n > limit {
			break
		}
	}
	return n
}

// head is a compound node's operator, with its function name for calls.
func head(e *Expr) string {
	if e.Op == OpFunc || e.Op == OpVecFunc {
		return e.Op.String() + " " + e.Sym
	}
	return e.Op.String()
}
