package egraph

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"diospyros/internal/expr"
)

// Pattern is a term pattern for e-matching. A pattern is either a variable
// (Var non-empty), which matches any e-class and binds it, or an operator
// applied to sub-patterns. Terminal patterns can match exact payloads.
type Pattern struct {
	Var string // pattern variable, e.g. "?a"; exclusive with Op use

	Op     expr.Op
	Lit    float64 // for expr.OpLit
	Sym    string  // for OpSym/OpGet/OpFunc payloads; "" matches any for Get/Func
	Idx    int     // for OpGet; IdxAny matches any index
	IdxAny bool
	Args   []*Pattern
}

// PVar constructs a pattern variable.
func PVar(name string) *Pattern { return &Pattern{Var: name} }

// PLit constructs a literal pattern.
func PLit(v float64) *Pattern { return &Pattern{Op: expr.OpLit, Lit: v} }

// POp constructs an operator pattern.
func POp(op expr.Op, args ...*Pattern) *Pattern { return &Pattern{Op: op, Args: args} }

// ParsePattern parses an s-expression pattern. Tokens beginning with '?' are
// pattern variables; other syntax matches the expr DSL.
//
//	(+ ?a (* ?b ?c))
func ParsePattern(src string) (*Pattern, error) {
	p := &patParser{src: src}
	pat, err := p.parse()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("egraph: trailing input in pattern %q", src)
	}
	return pat, nil
}

// MustPattern is ParsePattern, panicking on error (for rule tables).
func MustPattern(src string) *Pattern {
	p, err := ParsePattern(src)
	if err != nil {
		panic(err)
	}
	return p
}

type patParser struct {
	src string
	pos int
}

func (p *patParser) skip() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *patParser) token() string {
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

var patHeads = func() map[string]expr.Op {
	m := map[string]expr.Op{}
	for op := expr.Op(0); op < expr.NumOps; op++ {
		m[op.String()] = op
	}
	return m
}()

func (p *patParser) parse() (*Pattern, error) {
	p.skip()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("egraph: unexpected end of pattern")
	}
	if p.src[p.pos] != '(' {
		tok := p.token()
		if tok == "" {
			return nil, fmt.Errorf("egraph: bad pattern at offset %d", p.pos)
		}
		if strings.HasPrefix(tok, "?") {
			return PVar(tok), nil
		}
		if v, err := strconv.ParseFloat(tok, 64); err == nil {
			return PLit(v), nil
		}
		return &Pattern{Op: expr.OpSym, Sym: tok}, nil
	}
	p.pos++ // consume '('
	p.skip()
	head := p.token()
	op, ok := patHeads[head]
	if !ok {
		return nil, fmt.Errorf("egraph: unknown pattern operator %q", head)
	}
	pat := &Pattern{Op: op}
	switch op {
	case expr.OpGet:
		p.skip()
		pat.Sym = p.token() // "?" or "" means any array
		if strings.HasPrefix(pat.Sym, "?") {
			pat.Sym = ""
		}
		p.skip()
		idxTok := p.token()
		if strings.HasPrefix(idxTok, "?") {
			pat.IdxAny = true
		} else {
			idx, err := strconv.Atoi(idxTok)
			if err != nil {
				return nil, fmt.Errorf("egraph: Get pattern index %q", idxTok)
			}
			pat.Idx = idx
		}
	case expr.OpFunc, expr.OpVecFunc:
		p.skip()
		pat.Sym = p.token()
		if strings.HasPrefix(pat.Sym, "?") {
			pat.Sym = ""
		}
		fallthrough
	default:
		for {
			p.skip()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("egraph: unterminated pattern %q", p.src)
			}
			if p.src[p.pos] == ')' {
				break
			}
			a, err := p.parse()
			if err != nil {
				return nil, err
			}
			pat.Args = append(pat.Args, a)
		}
	}
	p.skip()
	if p.pos >= len(p.src) || p.src[p.pos] != ')' {
		return nil, fmt.Errorf("egraph: missing ')' in pattern")
	}
	p.pos++
	return pat, nil
}

// Vars returns the distinct variable names in the pattern, in first-use order.
func (p *Pattern) Vars() []string {
	var out []string
	seen := map[string]bool{}
	var walk func(*Pattern)
	walk = func(q *Pattern) {
		if q.Var != "" {
			if !seen[q.Var] {
				seen[q.Var] = true
				out = append(out, q.Var)
			}
			return
		}
		for _, a := range q.Args {
			walk(a)
		}
	}
	walk(p)
	return out
}

// Subst maps pattern variables to e-classes.
type Subst map[string]ClassID

func (s Subst) clone() Subst {
	c := make(Subst, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Match is one result of searching a rewrite's left-hand side: the class
// where it matched and the applier's payload (a pattern rule's Subst, or a
// custom searcher's own data).
type Match struct {
	Class ClassID
	Data  any
}

// matchIn returns all extensions of subst under which p matches class id.
func (g *EGraph) matchIn(p *Pattern, id ClassID, subst Subst) []Subst {
	id = g.Find(id)
	if p.Var != "" {
		if bound, ok := subst[p.Var]; ok {
			if g.Find(bound) == id {
				return []Subst{subst}
			}
			return nil
		}
		s := subst.clone()
		s[p.Var] = id
		return []Subst{s}
	}
	var results []Subst
	for _, n := range g.classes[id].Nodes {
		if !g.nodeMatches(p, n) {
			continue
		}
		partial := []Subst{subst}
		for i, argPat := range p.Args {
			var next []Subst
			for _, s := range partial {
				next = append(next, g.matchIn(argPat, n.Args[i], s)...)
			}
			partial = next
			if len(partial) == 0 {
				break
			}
		}
		results = append(results, partial...)
	}
	return results
}

// nodeMatches checks the node-local parts of a pattern (operator, payload,
// arity) without descending into children. Pattern symbols stay strings
// (patterns are shared across graphs); they are resolved against the
// graph's intern table here — a symbol never interned in this graph cannot
// appear on any node, so such patterns simply match nothing.
func (g *EGraph) nodeMatches(p *Pattern, n ENode) bool {
	if p.Op != n.Op {
		return false
	}
	switch p.Op {
	case expr.OpLit:
		return p.Lit == n.Lit
	case expr.OpSym:
		sid, ok := g.syms.Lookup(p.Sym)
		return ok && sid == n.Sym
	case expr.OpGet:
		if p.Sym != "" {
			sid, ok := g.syms.Lookup(p.Sym)
			if !ok || sid != n.Sym {
				return false
			}
		}
		return p.IdxAny || p.Idx == n.Idx
	case expr.OpFunc, expr.OpVecFunc:
		if p.Sym != "" {
			sid, ok := g.syms.Lookup(p.Sym)
			if !ok || sid != n.Sym {
				return false
			}
		}
	}
	return len(p.Args) == len(n.Args)
}

// Instantiate adds the pattern to the graph under the substitution,
// returning the resulting class. All pattern variables must be bound.
func (g *EGraph) Instantiate(p *Pattern, subst Subst) (ClassID, error) {
	if p.Var != "" {
		id, ok := subst[p.Var]
		if !ok {
			return 0, fmt.Errorf("egraph: unbound pattern variable %s", p.Var)
		}
		return g.Find(id), nil
	}
	n := ENode{Op: p.Op, Lit: p.Lit, Sym: g.InternSym(p.Sym), Idx: p.Idx}
	if len(p.Args) > 0 {
		n.Args = make([]ClassID, len(p.Args))
		for i, a := range p.Args {
			id, err := g.Instantiate(a, subst)
			if err != nil {
				return 0, err
			}
			n.Args[i] = id
		}
	}
	return g.Add(n), nil
}

// String renders the pattern in s-expression syntax.
func (p *Pattern) String() string {
	var b strings.Builder
	p.write(&b)
	return b.String()
}

func (p *Pattern) write(b *strings.Builder) {
	if p.Var != "" {
		b.WriteString(p.Var)
		return
	}
	switch p.Op {
	case expr.OpLit:
		fmt.Fprintf(b, "%g", p.Lit)
	case expr.OpSym:
		b.WriteString(p.Sym)
	case expr.OpGet:
		sym := p.Sym
		if sym == "" {
			sym = "?arr"
		}
		if p.IdxAny {
			fmt.Fprintf(b, "(Get %s ?i)", sym)
		} else {
			fmt.Fprintf(b, "(Get %s %d)", sym, p.Idx)
		}
	default:
		b.WriteByte('(')
		b.WriteString(p.Op.String())
		if p.Op == expr.OpFunc || p.Op == expr.OpVecFunc {
			b.WriteByte(' ')
			if p.Sym == "" {
				b.WriteString("?f")
			} else {
				b.WriteString(p.Sym)
			}
		}
		for _, a := range p.Args {
			b.WriteByte(' ')
			a.write(b)
		}
		b.WriteByte(')')
	}
}
