// Package frontend implements Diospyros's imperative scalar input language
// (the role played in the paper by an embedded Racket DSL, §3.1): a small
// C-like kernel language with fixed-size float arrays, counted loops,
// conditionals, and scalar arithmetic. A kernel can be
//
//   - symbolically evaluated (Lift) into the vector DSL — the specification
//     Diospyros optimizes — provided its control flow is input-independent;
//   - concretely interpreted (Interp) as the host reference semantics;
//   - compiled to FG3-lite by package kcc as the paper's Naive /
//     Naive-fixed-size baselines (which additionally allow data-dependent
//     while/if, as used by the Eigen-like library routines).
//
// Example:
//
//	kernel matmul(a[2][3], b[3][3]) -> (c[2][3]) {
//	    for i in 0..2 {
//	        for j in 0..3 {
//	            c[i][j] = 0.0;
//	            for k in 0..3 {
//	                c[i][j] = c[i][j] + a[i][k] * b[k][j];
//	            }
//	        }
//	    }
//	}
package frontend

import (
	"fmt"
	"unicode"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokFloat
	tokPunct // ( ) [ ] { } , ; -> .. = + - * / % < <= > >= == != && || !
	tokKeyword
)

var keywords = map[string]bool{
	"kernel": true, "for": true, "in": true, "if": true, "else": true,
	"while": true, "let": true, "var": true,
}

type token struct {
	kind tokKind
	text string
	ival int64
	fval float64
	pos  Pos
}

// Pos is a source position for diagnostics.
type Pos struct {
	Line, Col int
}

// String formats the position as line:col.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Error is a frontend diagnostic with position information.
type Error struct {
	Pos Pos
	Msg string
}

// Error formats the diagnostic as line:col: message.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

type lexer struct {
	src   string
	off   int
	line  int
	col   int
	toks  []token
	fname string
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1, col: 1}
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		l.toks = append(l.toks, t)
		if t.kind == tokEOF {
			return l.toks, nil
		}
	}
}

func (l *lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		c := l.peekByte()
		if c == '/' && l.off+1 < len(l.src) && l.src[l.off+1] == '/' {
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		l.advance()
	}
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

var twoCharPunct = map[string]bool{
	"->": true, "..": true, "<=": true, ">=": true, "==": true,
	"!=": true, "&&": true, "||": true,
}

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	pos := l.pos()
	if l.off >= len(l.src) {
		return token{kind: tokEOF, pos: pos}, nil
	}
	c := l.peekByte()

	// Identifiers and keywords.
	if unicode.IsLetter(rune(c)) || c == '_' {
		start := l.off
		for l.off < len(l.src) {
			c := l.peekByte()
			if !unicode.IsLetter(rune(c)) && !unicode.IsDigit(rune(c)) && c != '_' {
				break
			}
			l.advance()
		}
		text := l.src[start:l.off]
		kind := tokIdent
		if keywords[text] {
			kind = tokKeyword
		}
		return token{kind: kind, text: text, pos: pos}, nil
	}

	// Numbers: integer or float (with '.', but not '..').
	if unicode.IsDigit(rune(c)) {
		start := l.off
		isFloat := false
		for l.off < len(l.src) && unicode.IsDigit(rune(l.peekByte())) {
			l.advance()
		}
		if l.off+1 < len(l.src) && l.peekByte() == '.' && l.src[l.off+1] != '.' {
			isFloat = true
			l.advance()
			for l.off < len(l.src) && unicode.IsDigit(rune(l.peekByte())) {
				l.advance()
			}
		}
		if l.off < len(l.src) && (l.peekByte() == 'e' || l.peekByte() == 'E') {
			isFloat = true
			l.advance()
			if l.off < len(l.src) && (l.peekByte() == '+' || l.peekByte() == '-') {
				l.advance()
			}
			for l.off < len(l.src) && unicode.IsDigit(rune(l.peekByte())) {
				l.advance()
			}
		}
		text := l.src[start:l.off]
		if isFloat {
			var f float64
			if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
				return token{}, errf(pos, "bad float literal %q", text)
			}
			return token{kind: tokFloat, text: text, fval: f, pos: pos}, nil
		}
		var i int64
		if _, err := fmt.Sscanf(text, "%d", &i); err != nil {
			return token{}, errf(pos, "bad int literal %q", text)
		}
		return token{kind: tokInt, text: text, ival: i, pos: pos}, nil
	}

	// Punctuation.
	if l.off+1 < len(l.src) {
		two := l.src[l.off : l.off+2]
		if twoCharPunct[two] {
			l.advance()
			l.advance()
			return token{kind: tokPunct, text: two, pos: pos}, nil
		}
	}
	switch c {
	case '(', ')', '[', ']', '{', '}', ',', ';', '=', '+', '-', '*', '/', '%', '<', '>', '!':
		l.advance()
		return token{kind: tokPunct, text: string(c), pos: pos}, nil
	}
	return token{}, errf(pos, "unexpected character %q", c)
}
