// Command benchmark measures the Diospyros compiler on four workloads:
// end to end with tracing off, and per layer in a separate traced run. Run
// it from the repository root through the script that builds it:
//
//	bash benchmark/run.sh --workload suite --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: whether every output
// was correct, the ops attempted and failed, and the metrics. The line
// before it carries the run's provenance and per-program rows. Without
// --workload, every workload runs in its own process, untraced and then
// traced. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"

	diospyros "diospyros"
	"diospyros/internal/buildinfo"
)

// workloads are the benchmark's workloads in the order the all-workloads
// mode runs them.
var workloads = []string{"suite", "multi-target", "small-source", "serve-mix"}

// multiTargetSkip are the four slowest suite kernels, left out of
// multi-target so that a run still measures several passes.
var multiTargetSkip = map[string]bool{
	"2DConv 16x16 3x3": true, "2DConv 16x16 4x4": true,
	"MatMul 16x16 16x16": true, "QRDecomp 4x4": true,
}

// smallSourcePass is one pass of small-source: testdata kernels and how
// often each is compiled. Sorted by compile time the pass is matmul2x2 ×3,
// dotprod8 ×2, matmul2x3, fir8, conv3x5, qr3, so p50 falls in the middle
// of dotprod8's block and p90 inside qr3's, not on the edge between two
// kernels.
var smallSourcePass = []struct {
	name   string
	weight int
}{{"matmul2x2", 3}, {"dotprod8", 2}, {"matmul2x3", 1}, {"fir8", 1}, {"conv3x5", 1}, {"qr3", 1}}

func suiteWorkload(skip map[string]bool, opts diospyros.Options) compileWorkload {
	return compileWorkload{opts: opts, cases: func(_ string, seed int64) ([]kernelCase, []int, error) {
		cases, err := suiteCases(seed, skip)
		pass := make([]int, len(cases))
		for i := range pass {
			pass[i] = i
		}
		return cases, pass, err
	}}
}

var compileWorkloads = map[string]compileWorkload{
	"suite": suiteWorkload(nil, diospyros.Options{}),
	"multi-target": suiteWorkload(multiTargetSkip, diospyros.Options{
		Targets: []string{"fg3lite-4", "fg3lite-8", "scalar"}, Validate: true}),
	"small-source": {cases: func(root string, seed int64) ([]kernelCase, []int, error) {
		names := make([]string, len(smallSourcePass))
		for i, p := range smallSourcePass {
			names[i] = p.name
		}
		srcs, err := readSources(root, names)
		if err != nil {
			return nil, nil, err
		}
		r := rand.New(rand.NewSource(seed))
		var cases []kernelCase
		var pass []int
		for i, p := range smallSourcePass {
			c, err := sourceCase(p.name, srcs[p.name], r)
			if err != nil {
				return nil, nil, err
			}
			cases = append(cases, c)
			for n := 0; n < p.weight; n++ {
				pass = append(pass, i)
			}
		}
		return cases, pass, nil
	}},
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, name string, cfg runConfig, start startServer) (*result, error) {
	if name == "serve-mix" {
		return runServe(ctx, cfg, start)
	}
	w, ok := compileWorkloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	return runCompile(ctx, w, cfg)
}

// provenance identifies a run: what ran, where and with which build.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: suite, multi-target, small-source or serve-mix (empty runs all four)")
		seed     = flag.Int64("seed", 1, "seed for kernel order, simulator inputs and cache-bust salts (1 is the development seed, 2 the held-out one)")
		seconds  = flag.Float64("seconds", 20, "measuring time per run")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer passes and prints the per-layer metrics")
		serveBin = flag.String("serve-bin", "", "diosserve binary for serve-mix")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := runConfig{root: ".", seed: *seed, seconds: *seconds, trace: *trace == 1, serveBin: *serveBin}
	if *workload == "" {
		os.Exit(runAll(ctx, cfg))
	}
	res, err := runWorkload(ctx, *workload, cfg, serveProcess(cfg.serveBin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	prov := provenance{
		Workload: *workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: buildinfo.Revision(),
	}
	if cfg.trace {
		if err := writeTrace("benchmark-trace."+*workload+".json", *workload, prov, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "benchmark: failed op:", e)
	}
	detail, _ := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		*result
	}{prov, res})
	last, _ := json.Marshal(summary{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
	fmt.Printf("%s\n%s\n", detail, last)
	if res.Failed > 0 {
		os.Exit(1)
	}
}

// runAll runs every workload in its own process, untraced and then traced,
// passing their output through. It returns the exit code: 1 if any run
// failed.
func runAll(ctx context.Context, cfg runConfig) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, trace := range []string{"0", "1"} {
		for _, w := range workloads {
			cmd := exec.CommandContext(ctx, self, "--workload", w, "--seed", strconv.FormatInt(cfg.seed, 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace, "--serve-bin", cfg.serveBin)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				code = 1
			}
			fmt.Printf("== %s (trace %s)\n", w, trace)
			printMetrics(out)
		}
	}
	return code
}

// printMetrics prints the metrics of a run's last output line, one per line.
func printMetrics(out []byte) {
	out = bytes.TrimSpace(out)
	var s summary
	if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &s); err != nil {
		fmt.Println("   no result")
		return
	}
	fmt.Printf("   correct=%v attempted=%d failed=%d\n", s.Correct, s.Attempted, s.Failed)
	for _, name := range sortedKeys(s.Metrics) {
		m := s.Metrics[name]
		fmt.Printf("   %-26s %14.4f %s\n", name, m.Value, m.Unit)
	}
}
