package bench

import (
	"fmt"
	"math"
	"strings"

	"diospyros/internal/cost"
	"diospyros/internal/egraph"
)

// AblRow compares full Diospyros against the §5.6 scalar ablation (all
// vector rewrite rules disabled) for one kernel.
type AblRow struct {
	Kernel       Kernel
	BestBaseline int64
	Vectorized   int64
	ScalarOnly   int64
}

// AblSummary aggregates the §5.6 ablation result.
type AblSummary struct {
	GeomeanVectorized float64 // speedup over best baseline, full rules
	GeomeanScalar     float64 // speedup over best baseline, scalar rules only
	ScalarWins        int     // kernels where the scalar ablation beats vectorized
	Total             int
}

// Ablation runs the §5.6 vectorization ablation on Figure 5's rows: it
// compiles each row's kernel with every vector rewrite rule disabled and
// reads the vectorized and best-baseline columns off the row.
func Ablation(rows []Row, opt Options) ([]AblRow, AblSummary, error) {
	scalarOpts := opt.Opts
	scalarOpts.DisableVectorRules = true
	out, err := each(opt, kernelsOf(rows), func(i int, c suiteCase) (AblRow, string, error) {
		_, sres, err := c.compile(opt.ctx(), scalarOpts, "scalar-only")
		if err != nil {
			return AblRow{}, "", err
		}
		r := AblRow{Kernel: c.k, BestBaseline: rows[i].BestBaseline(),
			Vectorized: rows[i].Cycles.Diospyros, ScalarOnly: sres.Cycles}
		return r, fmt.Sprintf("baseline=%-7d vectorized=%-7d scalar-only=%-7d",
			r.BestBaseline, r.Vectorized, r.ScalarOnly), nil
	})
	if err != nil {
		return nil, AblSummary{}, err
	}
	return out, summarizeAblation(out), nil
}

func summarizeAblation(rows []AblRow) AblSummary {
	s := AblSummary{Total: len(rows)}
	logV, logS := 0.0, 0.0
	for _, r := range rows {
		logV += math.Log(float64(r.BestBaseline) / float64(r.Vectorized))
		logS += math.Log(float64(r.BestBaseline) / float64(r.ScalarOnly))
		if r.ScalarOnly < r.Vectorized {
			s.ScalarWins++
		}
	}
	if len(rows) > 0 {
		s.GeomeanVectorized = math.Exp(logV / float64(len(rows)))
		s.GeomeanScalar = math.Exp(logS / float64(len(rows)))
	}
	return s
}

// FormatAblation renders the §5.6 comparison.
func FormatAblation(rows []AblRow, s AblSummary) string {
	var b strings.Builder
	b.WriteString("§5.6 vectorization ablation (vector rewrite rules disabled)\n")
	fmt.Fprintf(&b, "%-22s %12s %12s %12s\n", "Kernel", "baseline", "diospyros", "scalar-only")
	for _, r := range rows {
		mark := ""
		if r.ScalarOnly < r.Vectorized {
			mark = "  <- scalar wins"
		}
		fmt.Fprintf(&b, "%-22s %12d %12d %12d%s\n",
			r.Kernel.ID, r.BestBaseline, r.Vectorized, r.ScalarOnly, mark)
	}
	fmt.Fprintf(&b, "\ngeomean speedup over best baseline: %.2fx with vector rules, %.2fx scalar-only\n",
		s.GeomeanVectorized, s.GeomeanScalar)
	fmt.Fprintf(&b, "scalar-only faster than vectorized on %d of %d kernels\n", s.ScalarWins, s.Total)
	fmt.Fprintf(&b, "(paper: 3.1x vs 2.2x, scalar faster on 4 of 21)\n")
	return b.String()
}

// uniformCost charges every operator the same, ignoring data movement —
// the ablated version of the §3.4 cost model. Strictly monotonic, so
// extraction still works; it just cannot tell cheap shuffles from
// expensive cross-array gathers.
type uniformCost struct{}

func (uniformCost) NodeCost(egraph.ENode, []cost.ChildInfo) float64 { return 1 }

// CostRow compares the movement-aware cost model against the uniform
// ablation on one kernel.
type CostRow struct {
	Kernel  Kernel
	Aware   int64 // cycles with the §3.4 data-movement cost model
	Uniform int64 // cycles with the uniform cost model
}

// CostModelAblation quantifies the design choice DESIGN.md §5 calls out:
// extraction guided by the data-movement-aware cost model versus a uniform
// per-node cost. It compiles each of Figure 5's kernels under the uniform
// model; the aware column is the row's Diospyros cycles, whose compile
// used the default model.
func CostModelAblation(rows []Row, opt Options) ([]CostRow, error) {
	uniformOpts := opt.Opts
	uniformOpts.CostModel = uniformCost{}
	return each(opt, kernelsOf(rows), func(i int, c suiteCase) (CostRow, string, error) {
		_, sres, err := c.compile(opt.ctx(), uniformOpts, "uniform")
		if err != nil {
			return CostRow{}, "", err
		}
		r := CostRow{Kernel: c.k, Aware: rows[i].Cycles.Diospyros, Uniform: sres.Cycles}
		return r, fmt.Sprintf("aware=%-7d uniform=%-7d", r.Aware, r.Uniform), nil
	})
}

// FormatCostAblation renders the cost-model ablation.
func FormatCostAblation(rows []CostRow) string {
	var b strings.Builder
	b.WriteString("cost-model ablation: movement-aware (§3.4) vs uniform per-node cost\n")
	fmt.Fprintf(&b, "%-22s %12s %12s %8s\n", "Kernel", "aware", "uniform", "ratio")
	logSum, n := 0.0, 0
	for _, r := range rows {
		ratio := float64(r.Uniform) / float64(r.Aware)
		fmt.Fprintf(&b, "%-22s %12d %12d %7.2fx\n", r.Kernel.ID, r.Aware, r.Uniform, ratio)
		logSum += math.Log(ratio)
		n++
	}
	if n > 0 {
		fmt.Fprintf(&b, "\ngeomean cost of ignoring data movement: %.2fx slower kernels\n",
			math.Exp(logSum/float64(n)))
	}
	return b.String()
}
