// Command diosserve runs the Diospyros compiler as a long-running HTTP
// service with live observability:
//
//	diosserve -addr :8175
//
//	POST /compile        compile a kernel (raw source, or JSON with options)
//	GET  /metrics        live Prometheus metrics across all requests
//	GET  /traces         recent compiles as a Chrome trace file, one lane per request
//	GET  /healthz        liveness probe
//	GET  /readyz         readiness probe (503 while draining)
//	GET  /debug/pprof/   live CPU/heap/goroutine profiles
//
//	curl -sS -X POST --data-binary @testdata/dotprod8.dios localhost:8175/compile
//	curl -sS localhost:8175/metrics | grep diospyros_serve
//
// A POST /compile with "Accept: text/event-stream" streams the search live
// as Server-Sent Events — one "iteration" event per saturation iteration,
// carrying that iteration's gauge (diospyros/trace/v2: e-graph size, one
// rule row per matching rule with Backoff bans marked, best cost) —
// ending with a "result" event carrying the usual JSON response:
//
//	curl -sSN -H 'Accept: text/event-stream' \
//	     --data-binary @testdata/conv3x5.dios localhost:8175/compile
//
// Repeat compiles of the same kernel with the same options are served
// from a content-addressed cache (the X-Dios-Cache response header says
// hit, miss, or coalesced; -cache-bytes budgets it), and concurrent
// identical requests are coalesced into a single compile.
//
// Compiles run on a bounded worker pool with an admission queue; a
// per-request saturation watchdog aborts compiles whose e-graph or process
// heap blows the -watchdog-nodes / -watchdog-heap budgets, and
// -request-timeout bounds each compile's wall clock. Every request gets an
// ID that tags its structured log lines (stage-level at -log-level
// debug) and its response. SIGINT/SIGTERM drains: /readyz flips to 503,
// in-flight compiles get -drain-grace to finish, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	diospyros "diospyros"
	"diospyros/internal/buildinfo"
	"diospyros/internal/serve"
	"diospyros/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", ":8175", "listen address")
		workers    = flag.Int("workers", 0, "max concurrent compiles (default GOMAXPROCS)")
		queueDepth = flag.Int("queue", 0, "max requests waiting for a worker (default 64)")
		reqTimeout = flag.Duration("request-timeout", 0, "per-request compile deadline (default 120s)")
		wdNodes    = flag.Int("watchdog-nodes", 2_000_000, "abort compiles whose e-graph exceeds this many nodes (0 disables)")
		wdHeap     = flag.Int64("watchdog-heap", 0, "abort compiles once the process live heap exceeds this many bytes (0 disables)")
		satTimeout = flag.Duration("timeout", 0, "default equality-saturation timeout (default 180s)")
		cacheBytes = flag.Int64("cache-bytes", 0, "content-addressed compile cache budget in bytes (default 64 MiB, negative disables)")
		enableAC   = flag.Bool("ac", false, "add the full associativity/commutativity rules (diospyros.ACRules)")
		backoff    = flag.Bool("backoff", false, "schedule rules with the backoff policy (ban over-matching rules); useful with -ac")
		traceLog   = flag.Int("trace-log", 0, "completed request traces kept for GET /traces (default 64, negative disables)")
		logLevel   = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logJSON    = flag.Bool("log-json", false, "log JSON lines instead of text")
		drainGrace = flag.Duration("drain-grace", 10*time.Second, "shutdown grace period for in-flight compiles")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Summary("diosserve"))
		return
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "diosserve: bad -log-level %q\n", *logLevel)
		os.Exit(2)
	}
	log := telemetry.NewLogger(os.Stderr, level, *logJSON)

	opts := diospyros.Options{Timeout: *satTimeout, UseBackoff: *backoff}
	if *enableAC {
		opts.ExtraRules = diospyros.ACRules()
	}
	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		RequestTimeout: *reqTimeout,
		WatchdogNodes:  *wdNodes,
		WatchdogHeap:   *wdHeap,
		TraceLog:       *traceLog,
		CacheBytes:     *cacheBytes,
		Options:        opts,
		Logger:         log,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Info("diosserve listening", "addr", *addr)

	select {
	case err := <-errc:
		log.Error("listener failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	log.Info("draining", "grace", *drainGrace)
	srv.SetReady(false)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Warn("shutdown incomplete", "err", err)
		_ = httpSrv.Close()
	}
	log.Info("diosserve stopped")
}
