package frontend

// Type is the scalar type of an expression.
type Type uint8

const (
	TypeInvalid Type = iota // the zero value: not typechecked, or unresolved
	TypeInt                 // loop counters, indices, bounds
	TypeFloat               // data values
	TypeBool                // conditions
)

// String returns the type's name as diagnostics spell it.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeBool:
		return "bool"
	}
	return "invalid"
}

// Kernel is one kernel definition.
type Kernel struct {
	Name   string
	Params []Param // inputs
	Outs   []Param // outputs
	Body   *Block
	Pos    Pos
	// UserFuncs records uninterpreted functions used by the kernel
	// (name → arity), filled in by the typechecker.
	UserFuncs map[string]int
	// Slots is the number of names the typechecker resolved: the
	// parameters and outputs are slots 0..len(Params)+len(Outs)-1 in
	// declaration order, then each let, loop variable and var array
	// takes the next slot. Every declaration and use records its slot,
	// so consumers index storage by slot and never look a name up.
	Slots int
}

// Param is an input or output array. A scalar parameter is written a[1].
type Param struct {
	Name string
	Dims []int // 1 or 2 dimensions
	Pos  Pos
}

// Len returns the flattened element count.
func (p Param) Len() int {
	n := 1
	for _, d := range p.Dims {
		n *= d
	}
	return n
}

// Block is a statement list.
type Block struct {
	Stmts []Stmt
}

// Stmt is a statement node.
type Stmt interface{ StmtPos() Pos }

// ForStmt is `for i in lo..hi { ... }` (hi exclusive).
type ForStmt struct {
	Var    string
	Slot   int // the loop variable's slot, set by the typechecker
	Lo, Hi Expr
	Body   *Block
	Pos    Pos
}

// WhileStmt is `while cond { ... }`. Data-dependent conditions are allowed
// only in baseline compilation, not in lifting.
type WhileStmt struct {
	Cond Expr
	Body *Block
	Pos  Pos
}

// IfStmt is `if cond { ... } else { ... }`.
type IfStmt struct {
	Cond Expr
	Then *Block
	Else *Block // may be nil
	Pos  Pos
}

// LetStmt declares a scalar local: `let x = e;`. The type is inferred.
type LetStmt struct {
	Name string
	Val  Expr
	Type Type // set by the typechecker
	Slot int  // set by the typechecker
	Pos  Pos
}

// VarArrayStmt declares a zero-initialized local float array: `var t[3][3];`.
type VarArrayStmt struct {
	Name string
	Dims []int
	Slot int // set by the typechecker
	Pos  Pos
}

// AssignStmt assigns to a scalar local or an array element.
type AssignStmt struct {
	Name    string
	Slot    int    // the slot of the variable or array, set by the typechecker
	Indices []Expr // nil for scalar locals
	Val     Expr
	Pos     Pos
}

// StmtPos returns the statement's position.
func (s *ForStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's position.
func (s *WhileStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's position.
func (s *IfStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's position.
func (s *LetStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's position.
func (s *VarArrayStmt) StmtPos() Pos { return s.Pos }

// StmtPos returns the statement's position.
func (s *AssignStmt) StmtPos() Pos { return s.Pos }

// Expr is an expression node. Types are filled in by the typechecker.
type Expr interface {
	ExprType() Type
	ExprPos() Pos
}

type exprBase struct {
	Type Type
	Pos  Pos
}

func (e *exprBase) ExprType() Type { return e.Type }
func (e *exprBase) ExprPos() Pos   { return e.Pos }

// NumLit is a numeric literal; IsInt distinguishes `3` from `3.0`.
type NumLit struct {
	exprBase
	F     float64
	I     int64
	IsInt bool
}

// VarRef reads a scalar local or loop variable.
type VarRef struct {
	exprBase
	Name string
	Slot int // set by the typechecker
}

// IndexExpr reads an array element: a[i] or a[i][j].
type IndexExpr struct {
	exprBase
	Name    string
	Slot    int // set by the typechecker
	Indices []Expr
}

// BinExpr is a binary operation. Op is the surface token:
// + - * / % < <= > >= == != && ||.
type BinExpr struct {
	exprBase
	Op   string
	L, R Expr
}

// UnExpr is unary minus or logical not.
type UnExpr struct {
	exprBase
	Op string // "-" or "!"
	X  Expr
}

// CastExpr is an implicit int→float promotion inserted by the typechecker.
type CastExpr struct {
	exprBase
	X Expr
}

// CallExpr calls a builtin (sqrt, abs, sgn) or a user-defined (uninterpreted)
// float function.
type CallExpr struct {
	exprBase
	Name string
	Args []Expr
}

// Builtins are the intrinsic float functions.
var Builtins = map[string]int{"sqrt": 1, "abs": 1, "sgn": 1}
