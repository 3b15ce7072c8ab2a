// Command diosload soaks one or more diosserve replicas with sustained
// concurrent compile traffic and reports the serving SLO picture: latency
// percentiles (p50/p90/p99/p99.9), throughput, shed/error rates, cache hit
// ratio, the server-reported per-phase breakdown, and per-kernel stats.
// The phases are the X-Dios-Server-Timing phase path (queue, cache,
// compile with its compile.<stage> and compile.saturate.* children,
// serialize), parsed with telemetry.ParseServerTiming and listed in
// header order.
//
//	diosload -url http://localhost:8175 -duration 20s -concurrency 8
//
// Driving modes: closed loop by default (-concurrency workers, each with
// one request in flight), open loop with -rate N (N arrivals/second
// regardless of completions). The kernel mix cycles through -kernels (a
// subset of the built-in five: matmul2x2, matmul2x3, dot8, fir8, qr3), and
// -cache-bust F salts that fraction of requests with a unique comment so
// they miss the server's content-addressed compile cache.
//
// Artifacts: -out writes the run as SoakResult JSON, -report writes a
// self-contained HTML soak report (latency-over-time lanes, shed timeline,
// phase and per-kernel tables). diosload judges nothing itself: CI asserts
// absolute error and shed budgets on the JSON (error_rate, shed_rate).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"diospyros/internal/buildinfo"
	"diospyros/internal/loadgen"
	"diospyros/internal/telemetry"
)

func main() {
	var (
		urls        = flag.String("url", "http://localhost:8175", "comma-separated replica base URLs, round-robined")
		kernels     = flag.String("kernels", "", "comma-separated kernel mix from the built-in set (default: all five)")
		concurrency = flag.Int("concurrency", 4, "closed-loop workers, each keeping one request in flight")
		rate        = flag.Float64("rate", 0, "open-loop arrival rate in requests/second (0 = closed loop)")
		duration    = flag.Duration("duration", 20*time.Second, "how long to drive load")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request deadline")
		cacheBust   = flag.Float64("cache-bust", 0, "fraction of requests (0..1) salted to miss the server's compile cache")
		salt        = flag.String("salt", "", "cache-busting salt namespace (default: derived from the start time)")
		targetsFlag = flag.String("targets", "", "comma-separated machine targets for each compile (JSON requests)")
		window      = flag.Duration("window", time.Second, "time-series bucket width")
		out         = flag.String("out", "", "write the run as SoakResult JSON to this file")
		reportOut   = flag.String("report", "", "write a self-contained HTML soak report to this file")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logJSON     = flag.Bool("log-json", false, "log JSON lines instead of text")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Summary("diosload"))
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "diosload: bad -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	log := telemetry.NewLogger(os.Stderr, level, *logJSON)

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "diosload:", err)
		os.Exit(1)
	}

	mix := loadgen.BuiltinMix()
	if *kernels != "" {
		var ok bool
		mix, ok = loadgen.MixByNames(splitList(*kernels))
		if !ok {
			fail(fmt.Errorf("unknown kernel in -kernels %q (built-in: matmul2x2, matmul2x3, dot8, fir8, qr3)", *kernels))
		}
	}
	if *salt == "" {
		*salt = time.Now().UTC().Format("20060102T150405")
	}

	cfg := loadgen.Config{
		URLs:        splitList(*urls),
		Kernels:     mix,
		Concurrency: *concurrency,
		Rate:        *rate,
		Duration:    *duration,
		Timeout:     *timeout,
		CacheBust:   *cacheBust,
		Salt:        *salt,
		Targets:     splitList(*targetsFlag),
		Window:      *window,
		Logger:      log,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Info("soak starting", "urls", *urls, "duration", *duration,
		"concurrency", *concurrency, "rate", *rate, "kernels", len(mix))
	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fail(err)
	}
	res.Build = buildinfo.Summary("diosload")

	fmt.Print(loadgen.FormatSummary(res))

	if *out != "" {
		if err := loadgen.WriteJSON(*out, res); err != nil {
			fail(err)
		}
		log.Info("soak result written", "file", *out)
	}

	if *reportOut != "" {
		page, err := loadgen.Report(res)
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*reportOut, page, 0o644); err != nil {
			fail(err)
		}
		log.Info("soak report written", "file", *reportOut)
	}
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
