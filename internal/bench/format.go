package bench

import (
	"fmt"
	"math"
	"strings"
)

// FormatFigure5 renders the kernel speedups as the paper's Figure 5
// (speedup over the fixed-size naive baseline, one row per kernel).
func FormatFigure5(rows []Row) string {
	var b strings.Builder
	b.WriteString("Figure 5: speedup over Naive (fixed size) in simulated cycles\n")
	fmt.Fprintf(&b, "%-22s %9s %9s %9s %9s %9s   %s\n",
		"Kernel", "Naive", "Fixed", "Diospyros", "Nature", "Eigen", "dios speedup")
	for _, r := range rows {
		nat, eig := "-", "-"
		if r.Cycles.Nature > 0 {
			nat = fmt.Sprint(r.Cycles.Nature)
		}
		if r.Cycles.Eigen > 0 {
			eig = fmt.Sprint(r.Cycles.Eigen)
		}
		fmt.Fprintf(&b, "%-22s %9d %9d %9d %9s %9s   %6.2fx %s\n",
			r.Kernel.ID, r.Cycles.Naive, r.Cycles.NaiveFixed, r.Cycles.Diospyros,
			nat, eig, r.Speedup(r.Cycles.Diospyros),
			bar(r.Speedup(r.Cycles.Diospyros)))
	}
	fmt.Fprintf(&b, "\ngeomean speedup over best non-Diospyros baseline: %.2fx  (paper: 3.1x)\n",
		GeomeanVsBestBaseline(rows))
	return b.String()
}

// GeomeanVsBestBaseline computes the paper's headline number: the geometric
// mean of Diospyros's speedup over the best non-Diospyros baseline.
func GeomeanVsBestBaseline(rows []Row) float64 {
	logSum, n := 0.0, 0
	for _, r := range rows {
		best := r.BestBaseline()
		if best == 0 || r.Cycles.Diospyros == 0 {
			continue
		}
		logSum += math.Log(float64(best) / float64(r.Cycles.Diospyros))
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

func bar(speedup float64) string {
	n := int(speedup * 4)
	if n > 60 {
		n = 60
	}
	if n < 0 {
		n = 0
	}
	return strings.Repeat("#", n)
}

// FormatMotivating renders the §2 motivating-example numbers from the
// Figure 5 data (3×5 input, 3×3 filter convolution).
func FormatMotivating(rows []Row) string {
	for _, r := range rows {
		if r.Kernel.ID != "2DConv 3x5 3x3" {
			continue
		}
		var b strings.Builder
		b.WriteString("§2 motivating example: 3×5 ⋆ 3×3 convolution\n")
		fmt.Fprintf(&b, "  naive (parametric):   %6d cycles\n", r.Cycles.Naive)
		fmt.Fprintf(&b, "  naive (fixed size):   %6d cycles  (%.1fx over naive; paper: 1.6x)\n",
			r.Cycles.NaiveFixed, float64(r.Cycles.Naive)/float64(r.Cycles.NaiveFixed))
		fmt.Fprintf(&b, "  vendor library:       %6d cycles\n", r.Cycles.Nature)
		fmt.Fprintf(&b, "  diospyros:            %6d cycles  (%.1fx over naive; paper: 22.9x)\n",
			r.Cycles.Diospyros, float64(r.Cycles.Naive)/float64(r.Cycles.Diospyros))
		fmt.Fprintf(&b, "                                       (%.1fx over library; paper: 4.5x)\n",
			float64(r.Cycles.Nature)/float64(r.Cycles.Diospyros))
		return b.String()
	}
	return "motivating example kernel not in rows\n"
}
