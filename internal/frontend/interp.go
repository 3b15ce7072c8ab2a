package frontend

import (
	"context"
	"fmt"
	"math"

	"diospyros/internal/expr"
)

// Interp concretely executes a kernel on float64 inputs, returning its
// outputs. This is the host reference semantics used for differential
// testing of every other execution path (lifting, baseline compilation,
// library kernels).
func Interp(k *Kernel, inputs map[string][]float64, funcs map[string]func([]float64) float64) (map[string][]float64, error) {
	if err := CheckShapes(k); err != nil {
		return nil, err
	}
	dom := concrete{funcs: funcs}
	arrays := make([]Array[float64], 0, len(k.Params)+len(k.Outs))
	for _, p := range k.Params {
		data, ok := inputs[p.Name]
		if !ok {
			return nil, fmt.Errorf("frontend: missing input %q", p.Name)
		}
		if len(data) != p.Len() {
			return nil, fmt.Errorf("frontend: input %q has %d elements, want %d", p.Name, len(data), p.Len())
		}
		// The typechecker rejects writes to inputs, so the caller's slice
		// is never written.
		arrays = append(arrays, &slice[float64]{dims: p.Dims, vals: data})
	}
	outputs := make(map[string][]float64, len(k.Outs))
	for _, p := range k.Outs {
		a := zeros[float64](dom, p.Dims)
		arrays, outputs[p.Name] = append(arrays, a), a.vals
	}
	if err := Run[float64](context.Background(), k, dom, arrays); err != nil {
		return nil, err
	}
	return outputs, nil
}

// concrete is Interp's domain: float values are float64, and user
// functions take their semantics from funcs.
type concrete struct {
	funcs map[string]func([]float64) float64
}

func (concrete) Num(v float64) float64 { return v }

func (c concrete) Local(_ string, dims []int) Array[float64] { return zeros[float64](c, dims) }

func (concrete) Arith(op string, l, r float64, _ Pos) (float64, error) {
	switch op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	}
	return l / r, nil
}

func (concrete) Neg(x float64, _ Pos) (float64, error) { return -x, nil }

func (c concrete) Call(name string, args []float64, pos Pos) (float64, error) {
	switch name {
	case "sqrt":
		return math.Sqrt(args[0]), nil
	case "abs":
		return math.Abs(args[0]), nil
	case "sgn":
		return expr.Sign(args[0]), nil
	}
	fn, ok := c.funcs[name]
	if !ok {
		return 0, errf(pos, "no semantics for function %q", name)
	}
	return fn(args), nil
}

func (concrete) Compare(op string, l, r float64, _ Pos) (bool, error) {
	return cmpOp(op, l, r), nil
}
