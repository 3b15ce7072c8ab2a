// Package kernel holds a lifted kernel specification: the vector-DSL term
// symbolic evaluation of a scalar kernel produces (paper §3.1), with the
// shapes of the arrays it reads and writes. frontend.Lift builds one from
// kernel-language source.
package kernel

import "diospyros/internal/expr"

// ArrayDecl describes an input or output array. Cols is 1 for vectors;
// a scalar is declared as a 1×1 array.
type ArrayDecl struct {
	Name string
	Rows int
	Cols int
}

// Len returns the flattened element count.
func (d ArrayDecl) Len() int { return d.Rows * d.Cols }

// Lifted is a kernel specification after symbolic evaluation: a List term
// with one scalar expression per output element, plus shape metadata the
// backend needs for loads/stores.
type Lifted struct {
	Name    string
	Spec    *expr.Expr // (List e0 e1 ...)
	Inputs  []ArrayDecl
	Outputs []ArrayDecl
}

// OutputLen is the number of scalar outputs (before zero padding).
func (l *Lifted) OutputLen() int {
	n := 0
	for _, d := range l.Outputs {
		n += d.Len()
	}
	return n
}

// InputLen is the total number of scalar inputs.
func (l *Lifted) InputLen() int {
	n := 0
	for _, d := range l.Inputs {
		n += d.Len()
	}
	return n
}
