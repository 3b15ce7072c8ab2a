// Package lower translates an extracted vector-DSL program into the
// low-level vector IR (paper §4). Its central job is data-movement
// planning: each Vec term's lanes may name arbitrary memory locations, and
// the backend must realize them with the target's movement repertoire —
// contiguous vector loads, single-register shuffles, two-register selects,
// nested selects for three or more source windows, broadcasts, and scalar
// inserts as a last resort. This mirrors how Diospyros lowers Vec terms to
// PDX_SHFL_MX32 / PDX_SEL_MX32 sequences on the Fusion G3 (§5.1).
package lower

import (
	"fmt"
	"slices"

	"diospyros/internal/expr"
	"diospyros/internal/kernel"
	"diospyros/internal/vir"
)

// Lower converts the extracted program for the given kernel interface.
// The root may be scalar (a List of scalar expressions, as produced by the
// §5.6 scalar ablation or a timed-out search) or vector (a Concat spine of
// width-wide chunks).
func Lower(name string, root *expr.Expr, width int, l *kernel.Lifted) (*vir.Program, error) {
	lw := &lowerer{
		prog:    vir.NewProgram(name, width, l.Inputs, l.Outputs),
		width:   width,
		vectors: map[vecKey]vir.ID{},
	}
	// Flat output index -> (array, offset) map.
	for _, d := range l.Outputs {
		for off := 0; off < d.Len(); off++ {
			lw.outSlots = append(lw.outSlots, slot{array: d.Name, off: off})
		}
	}
	// Presize the raw program: one instruction per distinct term plus one
	// store per output element. That is exact for scalar programs; vector
	// ones emit 0.6-2.9 instructions per term on the Table 1 suite, so Emit
	// doubles them at most twice instead of from 64 up.
	lw.prog.Instrs = make([]vir.Instr, 0, root.Size()+len(lw.outSlots))
	if err := lw.root(root); err != nil {
		return nil, err
	}
	return lw.prog, nil
}

type slot struct {
	array string
	off   int
}

type lowerer struct {
	prog     *vir.Program
	width    int
	outSlots []slot
	scalars  expr.Memo[vir.ID]
	vectors  map[vecKey]vir.ID
}

// vecKey memoizes vector lowering per (term, live-lane count): the same
// shared subterm may feed chunks with different numbers of live lanes.
// It is the one pointer-keyed memo outside expr.Memo because vector
// lowering is not a bottom-up fold: a Vec's lanes are planned by planVec
// (loads, shuffles, selects, scalar inserts), never lowered as vectors,
// and the live-lane count flows down from the chunk, not up from the
// arguments.
type vecKey struct {
	e    *expr.Expr
	live int
}

func (lw *lowerer) root(e *expr.Expr) error {
	if e.Op == expr.OpList {
		// Scalar program: one store per output element.
		if len(e.Args) != len(lw.outSlots) {
			return fmt.Errorf("lower: scalar program has %d elements, interface needs %d", len(e.Args), len(lw.outSlots))
		}
		for i, elem := range e.Args {
			id, err := lw.scalar(elem)
			if err != nil {
				return err
			}
			lw.prog.Emit(vir.Instr{Op: vir.StoreS, Args: []vir.ID{id},
				Array: lw.outSlots[i].array, Off: lw.outSlots[i].off})
		}
		return nil
	}
	// Vector program: flatten the Concat spine into chunks.
	var chunks []*expr.Expr
	var flatten func(*expr.Expr)
	flatten = func(x *expr.Expr) {
		if x.Op == expr.OpConcat {
			flatten(x.Args[0])
			flatten(x.Args[1])
			return
		}
		chunks = append(chunks, x)
	}
	flatten(e)
	covered := 0
	for _, chunk := range chunks {
		// Lanes beyond the kernel's real outputs are padding: they are
		// never stored, so the backend treats them as don't-care and
		// skips the data movement that would materialize them.
		live := len(lw.outSlots) - covered
		if live > lw.width {
			live = lw.width
		}
		if live <= 0 {
			break
		}
		id, err := lw.vector(chunk, live)
		if err != nil {
			return err
		}
		if err := lw.storeChunk(id, covered); err != nil {
			return err
		}
		covered += lw.width
	}
	if covered < len(lw.outSlots) {
		return fmt.Errorf("lower: program covers %d of %d outputs", covered, len(lw.outSlots))
	}
	return nil
}

// storeChunk stores the vector id to output slots [base, base+W), which may
// straddle output arrays; lanes beyond the real outputs are padding and are
// dropped.
func (lw *lowerer) storeChunk(id vir.ID, base int) error {
	lane := 0
	for lane < lw.width && base+lane < len(lw.outSlots) {
		s := lw.outSlots[base+lane]
		// Extend the run while consecutive lanes hit consecutive offsets
		// of the same array.
		end := lane + 1
		for end < lw.width && base+end < len(lw.outSlots) {
			nxt := lw.outSlots[base+end]
			if nxt.array != s.array || nxt.off != s.off+(end-lane) {
				break
			}
			end++
		}
		n := end - lane
		src := id
		if lane != 0 {
			// Rotate the run to the front so a partial store can emit it.
			idx := make([]int, lw.width)
			for k := range idx {
				if k < n {
					idx[k] = lane + k
				}
			}
			src = lw.prog.Emit(vir.Instr{Op: vir.Shuffle, Args: []vir.ID{id}, Idx: idx})
		}
		if n == lw.width {
			lw.prog.Emit(vir.Instr{Op: vir.StoreV, Args: []vir.ID{src}, Array: s.array, Off: s.off})
		} else {
			lw.prog.Emit(vir.Instr{Op: vir.StoreVN, Args: []vir.ID{src}, Array: s.array, Off: s.off, N: n})
		}
		lane = end
	}
	return nil
}

func (lw *lowerer) vector(e *expr.Expr, live int) (vir.ID, error) {
	key := vecKey{e: e, live: live}
	if id, ok := lw.vectors[key]; ok {
		return id, nil
	}
	id, err := lw.vectorUncached(e, live)
	if err != nil {
		return 0, err
	}
	lw.vectors[key] = id
	return id, nil
}

func (lw *lowerer) vectorUncached(e *expr.Expr, live int) (vir.ID, error) {
	if e.Op == expr.OpVec {
		if len(e.Args) != lw.width {
			return 0, fmt.Errorf("lower: Vec with %d lanes, width is %d", len(e.Args), lw.width)
		}
		return lw.planVec(e.Args, live)
	}
	op, ok := vectorOps[e.Op]
	if !ok {
		return 0, fmt.Errorf("lower: expected vector expression, got %s", e.Op)
	}
	args := make([]vir.ID, len(e.Args))
	for i, a := range e.Args {
		id, err := lw.vector(a, live)
		if err != nil {
			return 0, err
		}
		args[i] = id
	}
	return lw.prog.Emit(vir.Instr{Op: op, Args: args, Sym: e.Sym}), nil
}

// vectorOps maps each elementwise vector DSL operator to its IR
// instruction.
var vectorOps = map[expr.Op]vir.Op{
	expr.OpVecAdd: vir.AddV, expr.OpVecMinus: vir.SubV, expr.OpVecMul: vir.MulV, expr.OpVecDiv: vir.DivV,
	expr.OpVecMAC: vir.MacV, expr.OpVecNeg: vir.NegV, expr.OpVecSqrt: vir.SqrtV, expr.OpVecSgn: vir.SgnV,
	expr.OpVecFunc: vir.CallV,
}

// scalar lowers a scalar term once; shared subterms reuse their register.
func (lw *lowerer) scalar(e *expr.Expr) (vir.ID, error) {
	return lw.scalars.Fold(e, lw.emitScalar)
}

// emitScalar emits the instruction of one scalar term whose arguments are
// already in the registers args.
func (lw *lowerer) emitScalar(e *expr.Expr, args []vir.ID) (vir.ID, error) {
	switch e.Op {
	case expr.OpLit:
		return lw.prog.Emit(vir.Instr{Op: vir.ConstS, F: e.Lit}), nil
	case expr.OpGet:
		return lw.prog.Emit(vir.Instr{Op: vir.LoadS, Array: e.Sym, Off: e.Idx}), nil
	case expr.OpSym:
		return 0, fmt.Errorf("lower: free symbol %q has no storage", e.Sym)
	}
	if op, ok := scalarOps[e.Op]; ok {
		return lw.prog.Emit(vir.Instr{Op: op, Args: slices.Clone(args), Sym: e.Sym}), nil
	}
	return 0, fmt.Errorf("lower: expected scalar expression, got %s", e.Op)
}

// scalarOps maps each scalar DSL operator to its IR instruction.
var scalarOps = map[expr.Op]vir.Op{
	expr.OpAdd: vir.AddS, expr.OpSub: vir.SubS, expr.OpMul: vir.MulS, expr.OpDiv: vir.DivS,
	expr.OpNeg: vir.NegS, expr.OpSqrt: vir.SqrtS, expr.OpSgn: vir.SgnS, expr.OpFunc: vir.CallS,
}
