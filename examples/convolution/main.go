// Convolution: the paper's §2 motivating example end to end — a fixed-size
// 2-D convolution (3×5 input, 3×3 filter) compiled five ways and raced on
// the simulated DSP:
//
//   - a naive loop nest with parametric sizes,
//
//   - the same loop nest with fixed sizes (full -O3-style unrolling),
//
//   - the vendor's size-generic vectorized library routine,
//
//   - a portable scalar library (Eigen-like),
//
//   - Diospyros.
//
//     go run ./examples/convolution
package main

import (
	"fmt"
	"log"
	"math/rand"

	diospyros "diospyros"
	"diospyros/internal/eigenlite"
	"diospyros/internal/kcc"
	"diospyros/internal/kernels"
	"diospyros/internal/nature"
)

const convSrc = `
kernel conv2d(i[3][5], f[3][3]) -> (o[5][7]) {
    for oRow in 0..5 {
        for oCol in 0..7 {
            for fRow in 0..3 {
                for fCol in 0..3 {
                    let fRT = 3 - 1 - fRow;
                    let fCT = 3 - 1 - fCol;
                    let iRow = oRow - fRT;
                    let iCol = oCol - fCT;
                    if iRow >= 0 && iRow < 3 && iCol >= 0 && iCol < 5 {
                        o[oRow][oCol] = o[oRow][oCol] + i[iRow][iCol] * f[fRT][fCT];
                    }
                }
            }
        }
    }
}
`

func main() {
	r := rand.New(rand.NewSource(42))
	in := make([]float64, 15)
	filt := make([]float64, 9)
	for i := range in {
		in[i] = r.Float64()*4 - 2
	}
	for i := range filt {
		filt[i] = r.Float64()*4 - 2
	}
	want := kernels.Conv2DRef(3, 5, 3, 3, in, filt)

	type entry struct {
		name   string
		cycles int64
	}
	var results []entry
	check := func(name string, got []float64) {
		for i := range want {
			if diff := got[i] - want[i]; diff > 1e-6 || diff < -1e-6 {
				log.Fatalf("%s: wrong output at %d: %g vs %g", name, i, got[i], want[i])
			}
		}
	}

	// Baselines via the baseline compiler.
	inputs := map[string][]float64{"i": in, "f": filt}
	for _, mode := range []kcc.Mode{kcc.Parametric, kcc.FixedSize} {
		rt, err := kcc.Build(convSrc, mode)
		if err != nil {
			log.Fatal(err)
		}
		out, res, err := rt.Run(inputs)
		if err != nil {
			log.Fatal(err)
		}
		check("naive "+mode.String(), out["o"])
		results = append(results, entry{"naive (" + mode.String() + ")", res.Cycles})
	}

	// Vendor library.
	prog := nature.Conv2D(3, 5, 3, 3)
	nout, nres, err := nature.Run(prog, inputs, []int{3, 5, 3, 3})
	if err != nil {
		log.Fatal(err)
	}
	check("vendor library", nout["o"][:35])
	results = append(results, entry{"vendor library (Nature-like)", nres.Cycles})

	// Portable scalar library.
	ert, err := kcc.Build(eigenlite.Conv2DSrc(3, 5, 3, 3), kcc.Parametric)
	if err != nil {
		log.Fatal(err)
	}
	eout, eres, err := ert.Run(inputs)
	if err != nil {
		log.Fatal(err)
	}
	check("eigen-like", eout["o"])
	results = append(results, entry{"portable library (Eigen-like)", eres.Cycles})

	// Diospyros.
	dres, err := diospyros.CompileSource(convSrc, diospyros.Options{})
	if err != nil {
		log.Fatal(err)
	}
	dout, dsim, err := dres.Run(inputs, nil)
	if err != nil {
		log.Fatal(err)
	}
	check("diospyros", dout["o"])
	results = append(results, entry{"diospyros", dsim.Cycles})

	fmt.Println("2-D convolution, 3×5 input ⋆ 3×3 filter (paper §2), simulated cycles:")
	base := results[1].cycles // fixed-size naive, the paper's normalization
	for _, e := range results {
		fmt.Printf("  %-32s %6d cycles   %5.2fx vs fixed-size naive\n",
			e.name, e.cycles, float64(base)/float64(e.cycles))
	}
	fmt.Println("\nall five implementations agree on the outputs; the compiled")
	fmt.Println("Diospyros kernel used", dsim.VectorOps(), "vector operations")
}
