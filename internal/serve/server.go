// Package serve is the long-running HTTP compile service on top of the
// staged pipeline: a bounded worker pool compiling kernels submitted to
// POST /compile, with live observability as a first-class concern —
//
//   - GET /metrics: a Prometheus scrape endpoint backed by a
//     telemetry.Registry aggregating counters, gauges, and latency
//     histograms across requests (in-flight compiles, queue depth,
//     per-stage latency, e-graph high-water marks, cancellations, and
//     saturation stop/abort reasons);
//   - structured per-request logs: every request gets an ID that threads
//     through the pipeline's context, so stage-level slog lines correlate
//     with the response;
//   - GET /traces: the last completed compiles as one Chrome trace-event
//     file, one thread lane per request (traces.go);
//   - GET /debug/pprof/...: live CPU/heap/goroutine profiles;
//   - GET /healthz and /readyz: liveness and readiness probes;
//   - one compile loop per request (watchdog.go): the compile runs on its
//     own goroutine while the handler samples the running e-graph's gauges
//     on one ticker, aborting compiles that blow the node or heap budget
//     (RequestTimeout bounds wall time) and relaying a streamed compile's
//     iterations as Server-Sent Events (stream.go);
//   - a content-addressed compile cache (cache.go): repeat requests with
//     identical normalized source and output-affecting options are served
//     from a byte-budgeted LRU of finished replies, concurrent identical
//     requests coalesce into one compile, and the X-Dios-Cache response
//     header reports the outcome (hit, miss, coalesced);
//   - a per-request phase path (phases.go): queue, cache, compile with
//     its compile.<stage> and compile.saturate.* children, and serialize,
//     reported on every compile reply as the X-Dios-Server-Timing header
//     (which the diosload soak harness reads) and observed into one
//     histogram family, diospyros_phase_seconds{cache,path}.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	diospyros "diospyros"
	"diospyros/internal/buildinfo"
	"diospyros/internal/pipeline"
	"diospyros/internal/telemetry"
)

// Config parameterizes a Server. The zero value serves with sane defaults:
// GOMAXPROCS workers, a 64-deep admission queue, a 120 s request deadline,
// and no watchdog budgets.
type Config struct {
	// Workers bounds concurrent compiles. 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds requests waiting for a worker slot; beyond it the
	// server sheds load with 503. 0 means 64; negative means no queue
	// (immediate 503 when all workers are busy).
	QueueDepth int
	// RequestTimeout bounds one compile end to end. 0 means 120 s;
	// negative means no deadline.
	RequestTimeout time.Duration
	// WatchdogNodes aborts a compile whose e-graph exceeds this many
	// nodes. 0 disables the node budget.
	WatchdogNodes int
	// WatchdogHeap aborts a compile once the process's live heap
	// (runtime/metrics objects bytes) exceeds this many bytes — the budget
	// guarding the resource that actually OOMs a replica. 0 disables the
	// heap budget.
	WatchdogHeap int64
	// StreamHeartbeat is the SSE keep-alive comment interval for streaming
	// compiles (stream.go). 0 means 15 s.
	StreamHeartbeat time.Duration
	// TraceLog bounds how many completed request traces the server retains
	// for GET /traces (traces.go). 0 means 64; negative disables retention.
	TraceLog int
	// CacheBytes budgets the content-addressed compile cache (cache.go):
	// repeat POST /compile requests with identical normalized source and
	// output-affecting options are served from memory, and concurrent
	// identical requests are coalesced into one compile. 0 means 64 MiB;
	// negative disables the cache.
	CacheBytes int64
	// Options is the base compile configuration; per-request fields
	// (timeout, ablations, validation) may override it.
	Options diospyros.Options
	// Logger receives structured request and stage logs. nil means no
	// logging.
	Logger *slog.Logger
	// Registry receives live metrics. nil means New creates one.
	Registry *telemetry.Registry
}

// Server is the compile service. Create with New, expose via Handler.
type Server struct {
	cfg    Config
	log    *slog.Logger
	reg    *telemetry.Registry
	slots  chan struct{}
	traces *traceRing
	cache  *compileCache // nil when Config.CacheBytes < 0

	queued   atomic.Int64
	inFlight atomic.Int64
	seq      atomic.Uint64
	ready    atomic.Bool

	// compileFn is the compile entry point, injectable in tests.
	compileFn func(ctx context.Context, src string, opts diospyros.Options) (*diospyros.Result, error)
}

// New builds a Server from cfg, applying defaults. The server starts
// ready; SetReady(false) drains it from load balancers before shutdown.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = 64
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	switch {
	case cfg.RequestTimeout == 0:
		cfg.RequestTimeout = 120 * time.Second
	case cfg.RequestTimeout < 0:
		cfg.RequestTimeout = 0
	}
	if cfg.StreamHeartbeat <= 0 {
		cfg.StreamHeartbeat = 15 * time.Second
	}
	if cfg.TraceLog == 0 {
		cfg.TraceLog = 64
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	log := cfg.Logger
	if log == nil {
		log = telemetry.NewLogger(io.Discard, slog.LevelError, false)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	// A long-running compile service wants its own runtime on the scrape:
	// goroutines, heap in use, and GC pauses alongside the compile metrics.
	reg.EnableRuntimeMetrics()
	s := &Server{
		cfg:       cfg,
		log:       log,
		reg:       reg,
		slots:     make(chan struct{}, cfg.Workers),
		traces:    newTraceRing(cfg.TraceLog),
		compileFn: diospyros.CompileSourceContext,
	}
	if cfg.CacheBytes > 0 {
		s.cache = newCompileCache(cfg.CacheBytes)
	}
	s.ready.Store(true)
	s.reg.GaugeSet("diospyros_serve_workers", "Configured worker slots.", nil, float64(cfg.Workers))
	// The build-info gauge ties every scrape (and thus every soak result)
	// to the exact build serving it.
	s.reg.GaugeSet("diospyros_build_info",
		"Build identity of this server; always 1, the labels carry the information.",
		buildinfo.MetricLabels(), 1)
	return s
}

// Registry returns the server's live metrics registry.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// SetReady flips the /readyz probe — false drains traffic before shutdown.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Handler returns the service's HTTP handler: /compile, /metrics,
// /healthz, /readyz, and /debug/pprof, all wrapped in request logging and
// request-rate metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.handleCompile)
	mux.Handle("GET /metrics", s.reg)
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		_, _ = io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.instrument(mux)
}

// statusWriter captures the response code for logs and metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.NewResponseController reach the underlying writer, so
// the SSE stream (stream.go) can flush through the instrumentation layer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps the mux with per-request structured logging and the
// request-rate metrics every endpoint shares.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := fmt.Sprintf("r%08x", s.seq.Add(1))
		ctx := telemetry.WithRequestID(telemetry.WithLogger(r.Context(), s.log), id)
		w.Header().Set("X-Request-Id", id)

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)

		labels := map[string]string{"path": r.URL.Path, "code": strconv.Itoa(sw.code)}
		s.reg.CounterAdd("diospyros_serve_requests_total",
			"HTTP requests by path and status code.", labels, 1)
		s.reg.Observe("diospyros_serve_request_duration_seconds",
			"HTTP request latency by path.",
			map[string]string{"path": r.URL.Path}, nil, elapsed.Seconds())

		log := telemetry.LoggerFrom(ctx)
		level := slog.LevelDebug // probe/scrape endpoints are noise at info
		if r.URL.Path == "/compile" {
			level = slog.LevelInfo
		}
		log.Log(ctx, level, "request",
			"method", r.Method, "path", r.URL.Path,
			"status", sw.code, "duration", elapsed)
	})
}

// CompileRequest is the JSON body of POST /compile (Content-Type
// application/json). Any other content type is treated as raw kernel
// source in the imperative kernel language.
type CompileRequest struct {
	// Source is the kernel in the imperative text language.
	Source string `json:"source"`
	// TimeoutMS overrides the saturation timeout, in milliseconds.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoVector disables vector rewrite rules (the scalar ablation).
	NoVector bool `json:"no_vector,omitempty"`
	// Validate runs translation validation on the result.
	Validate bool `json:"validate,omitempty"`
	// Explain attaches the rewrite-provenance report to the trace.
	Explain bool `json:"explain,omitempty"`
	// Targets names the machine targets to compile for ("fg3lite-4",
	// "fg3lite-8", "scalar", ...). One saturation search serves every
	// target; the first is the primary that fills the top-level C/Assembly
	// fields, and per-target artifacts land in the response's "targets"
	// list. Empty means the server's default target.
	Targets []string `json:"targets,omitempty"`
}

// TargetProgram is one target's artifacts in a multi-target compile reply.
type TargetProgram struct {
	Target    string  `json:"target"`
	Width     int     `json:"width"`
	Cost      float64 `json:"cost"`
	Cycles    int64   `json:"cycles,omitempty"`
	Validated bool    `json:"validated,omitempty"`
	C         string  `json:"c,omitempty"`
	Assembly  string  `json:"assembly,omitempty"`
}

// CompileResponse is the JSON reply of POST /compile. Trace is present
// whenever the pipeline ran at all — including failed, timed-out, and
// watchdog-aborted compiles — so clients always see where time went.
type CompileResponse struct {
	RequestID string           `json:"request_id"`
	Kernel    string           `json:"kernel,omitempty"`
	C         string           `json:"c,omitempty"`
	Assembly  string           `json:"assembly,omitempty"`
	Cost      float64          `json:"cost,omitempty"`
	Validated bool             `json:"validated,omitempty"`
	Trace     *telemetry.Trace `json:"trace,omitempty"`
	Error     string           `json:"error,omitempty"`
	// Aborted names the watchdog budget that killed the compile
	// ("node-budget", "heap-budget"); empty otherwise. RequestTimeout, not
	// the watchdog, bounds a compile's wall clock (504).
	Aborted string `json:"aborted,omitempty"`
	// Targets carries per-target artifacts when the request asked for more
	// than one machine target.
	Targets []TargetProgram `json:"targets,omitempty"`
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	log := telemetry.LoggerFrom(ctx)
	id := telemetry.RequestID(ctx)

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.writeError(w, http.StatusRequestEntityTooLarge, id, "request body too large")
		return
	}
	src, opts, err := s.parseRequest(r, body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, id, err.Error())
		return
	}
	tm := &timing{cache: cacheBypass, phases: []telemetry.Phase{{Path: "queue"}}}

	// Content-addressed compile cache (cache.go): a hit or a coalesced
	// result answers before admission, without taking a worker slot. A miss
	// makes this request the flight's leader. A successful leader publishes
	// its result before writing the reply, so a client that repeats the
	// request after reading it finds a stored entry; on every other exit the
	// deferred release lets the followers compile for themselves.
	var (
		flight    *cacheFlight
		flightKey string
	)
	if s.cache != nil && !wantsStream(r) && cacheableRequest(opts) {
		flightKey = compileCacheKey(src, opts)
		lookupStart := time.Now()
		stored, fl, state := s.cache.acquire(flightKey)
		lookup := time.Since(lookupStart)
		tm.add("cache", lookup)
		switch state {
		case cacheHit:
			// A hit's "compile" latency is the lookup itself — what the
			// cache label of diospyros_phase_seconds makes visible.
			tm.add("compile", lookup)
			s.serveCached(w, r, id, stored, "hit", tm)
			return
		case cacheFollower:
			waitStart := time.Now()
			stored := fl.wait(ctx)
			wait := time.Since(waitStart)
			if stored != nil {
				tm.add("compile", wait)
				s.serveCached(w, r, id, stored, "coalesced", tm)
				return
			}
			if ctx.Err() != nil {
				tm.cache = "coalesced"
				tm.add("compile", wait)
				s.countCancelled("coalesced")
				s.writeTimedError(w, httpStatusClientClosedRequest, id, "client went away while awaiting a coalesced compile", tm)
				return
			}
			// The leader failed; fall through and compile independently.
		case cacheLeader:
			flight = fl
			defer func() {
				if flight != nil {
					s.finishFlight(flightKey, flight, nil, 0)
				}
			}()
		}
		tm.cache = "miss"
		w.Header().Set("X-Dios-Cache", "miss")
		s.cacheCount("misses", 1)
	}

	// Admission: take a free worker slot if one is available, otherwise
	// queue up to QueueDepth waiters and shed the rest with 503, watching
	// for the client to give up while queued. The wait is recorded on
	// every outcome — including sheds, so a client holding a 503 can see
	// the queue was genuinely full rather than slow.
	admission := time.Now()
	select {
	case s.slots <- struct{}{}:
		tm.phases[0].Duration = time.Since(admission)
	default:
		if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
			s.queued.Add(-1)
			tm.phases[0].Duration = time.Since(admission)
			s.reg.CounterAdd("diospyros_serve_rejected_total",
				"Requests shed by admission control.",
				map[string]string{"reason": "queue_full"}, 1)
			w.Header().Set("Retry-After", "1")
			s.writeTimedError(w, http.StatusServiceUnavailable, id, "compile queue full", tm)
			return
		}
		s.setQueueGauge()
		select {
		case s.slots <- struct{}{}:
			s.queued.Add(-1)
			s.setQueueGauge()
			tm.phases[0].Duration = time.Since(admission)
		case <-ctx.Done():
			s.queued.Add(-1)
			s.setQueueGauge()
			tm.phases[0].Duration = time.Since(admission)
			s.countCancelled("queued")
			s.writeTimedError(w, httpStatusClientClosedRequest, id, "client went away while queued", tm)
			return
		}
	}
	defer func() { <-s.slots }() // release the worker slot on every path

	s.reg.GaugeAdd("diospyros_serve_compiles_in_flight",
		"Compiles currently executing.", nil, 1)
	s.inFlight.Add(1)
	defer func() {
		s.inFlight.Add(-1)
		s.reg.GaugeAdd("diospyros_serve_compiles_in_flight",
			"Compiles currently executing.", nil, -1)
	}()

	// Per-request compile context: deadline, and the cancellation cause
	// the compile loop (watchdog.go) sets when a budget is exceeded.
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	if s.cfg.RequestTimeout > 0 {
		var cancelT context.CancelFunc
		cctx, cancelT = context.WithTimeout(cctx, s.cfg.RequestTimeout)
		defer cancelT()
	}
	var sse *sseRelay
	if wantsStream(r) {
		sse = s.openStream(ctx, w, tm)
		opts.Journal = sse.jr
	}

	log.Info("compile start", "bytes", len(src), "stream", sse != nil)
	started := time.Now()
	res, err := s.watch(cctx, cancel, src, opts, sse)

	// One tail for both reply forms. A stream has already stamped its
	// header, so only the compile's own phases remain to observe.
	trace := traceOf(res)
	committed := len(tm.phases)
	tm.addCompile(time.Since(started), trace)
	if res != nil {
		s.observeCompile(trace)
		s.traces.record(id, kernelName(res), started, trace)
	}
	if sse != nil {
		s.observePhases(tm.cache, tm.phases[committed:])
		if ctx.Err() != nil {
			// The client hung up mid-stream, the SSE twin of the plain
			// path's 499; nobody is listening for the result event.
			s.countCancelled("streaming")
			log.Info("compile stream client went away")
			return
		}
	}
	var resp *CompileResponse
	code := http.StatusOK
	if err != nil {
		resp, code = s.classifyError(r, id, err, trace)
	} else {
		resp = s.successResponse(r, id, res)
	}
	if sse != nil {
		sse.result(resp, code)
		return
	}
	reply, err := encode(resp, tm)
	if err == nil && flight != nil && code == http.StatusOK {
		// Publish to the cache and any coalesced followers, charged the
		// body just marshalled.
		s.finishFlight(flightKey, flight, resp, int64(len(reply)))
		flight = nil
	}
	s.writePhased(w, code, reply, err, tm)
}

// finishFlight completes a cache leader's flight with resp, a body of
// size bytes (nil when the compile failed), and refreshes the cache
// metrics.
func (s *Server) finishFlight(key string, fl *cacheFlight, resp *CompileResponse, size int64) {
	if evicted := s.cache.finish(key, fl, resp, size); evicted > 0 {
		s.cacheCount("evictions", float64(evicted))
	}
	s.reg.GaugeSet("diospyros_serve_cache_bytes",
		"Bytes of reply body held by the compile cache.", nil,
		float64(s.cache.sizeBytes()))
}

// serveCached answers a compile request with a copy of a stored reply
// under the request's own ID, marking the response with how the cache
// resolved it ("hit" or "coalesced"). Cached responses skip trace
// aggregation — the pipeline did not run — and report only the four
// top-level phases, whose compile phase is the lookup (hit) or the
// coalesced wait (follower).
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, id string, stored *CompileResponse, how string, tm *timing) {
	tm.cache = how
	w.Header().Set("X-Dios-Cache", how)
	if how == "hit" {
		s.cacheCount("hits", 1)
	} else {
		s.cacheCount("coalesced", 1)
	}
	telemetry.LoggerFrom(r.Context()).Info("compile served from cache",
		"kernel", stored.Kernel, "cache", how)
	resp := *stored
	resp.RequestID = id
	body, err := encode(&resp, tm)
	s.writePhased(w, http.StatusOK, body, err, tm)
}

// encode marshals a compile reply's body, newline-terminated, timing the
// serialize phase.
func encode(resp *CompileResponse, tm *timing) ([]byte, error) {
	start := time.Now()
	body, err := json.MarshalIndent(resp, "", "  ")
	tm.add("serialize", time.Since(start))
	return append(body, '\n'), err
}

// writePhased writes an encoded compile reply with the request's phase
// path attached; a reply that failed to encode answers 500 instead. Every
// compile reply that got as far as a compile result funnels through here.
func (s *Server) writePhased(w http.ResponseWriter, code int, body []byte, err error, tm *timing) {
	if err != nil { // a Trace that cannot marshal; vanishingly unlikely
		s.writeTimedError(w, http.StatusInternalServerError, "", "response marshalling failed: "+err.Error(), tm)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.stamp(w.Header(), tm)
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// cacheCount bumps one of the diospyros_serve_cache_*_total counters.
func (s *Server) cacheCount(kind string, n float64) {
	help := map[string]string{
		"hits":      "Compiles served from the content-addressed cache.",
		"misses":    "Compiles that had to run because no cache entry matched.",
		"coalesced": "Compiles served by waiting on an identical in-flight request.",
		"evictions": "Cache entries evicted to respect the byte budget.",
	}[kind]
	s.reg.CounterAdd("diospyros_serve_cache_"+kind+"_total", help, nil, n)
}

// successResponse assembles the reply for a completed compile and logs it.
func (s *Server) successResponse(r *http.Request, id string, res *diospyros.Result) *CompileResponse {
	resp := &CompileResponse{
		RequestID: id,
		Kernel:    res.Kernel.Name,
		C:         res.C,
		Cost:      res.Cost,
		Validated: res.Validated,
		Trace:     res.Trace,
	}
	if res.Program != nil {
		resp.Assembly = res.Program.Disassemble()
	}
	if len(res.Targets) > 1 {
		for _, tr := range res.Targets {
			tp := TargetProgram{
				Target:    tr.Target,
				Width:     tr.Width,
				Cost:      tr.Cost,
				Cycles:    tr.Cycles,
				Validated: tr.Validated,
				C:         tr.C,
			}
			if tr.Program != nil {
				tp.Assembly = tr.Program.Disassemble()
			}
			resp.Targets = append(resp.Targets, tp)
		}
	}
	telemetry.LoggerFrom(r.Context()).Info("compile done",
		"kernel", resp.Kernel, "cost", res.Cost,
		"nodes", res.Saturation.Nodes, "stop", string(res.Saturation.Reason))
	return resp
}

// compile runs s.compileFn and recovers a panic into a
// *pipeline.PanicError, the error a panicking compile stage returns
// wrapped in its *pipeline.StageError. The server answers the one request
// with 500 instead of ending the process: the compile runs on its own
// goroutine (watchdog.go), which nothing else recovers.
func (s *Server) compile(ctx context.Context, src string, opts diospyros.Options) (res *diospyros.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, &pipeline.PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return s.compileFn(ctx, src, opts)
}

// httpStatusClientClosedRequest is nginx's 499: the client disconnected
// before the response. There is no standard constant.
const httpStatusClientClosedRequest = 499

// classifyError maps a compile error to a response and status code,
// bumping the matching counters: recovered compiler panics (500), watchdog
// aborts (422), server deadline (504), client cancellation (499), and
// plain compile failures (400). The partial trace still ships. The SSE
// path reuses the same classification, carrying the code in the final
// stream event instead of the HTTP status.
func (s *Server) classifyError(r *http.Request, id string, err error, trace *telemetry.Trace) (*CompileResponse, int) {
	log := telemetry.LoggerFrom(r.Context())
	resp := &CompileResponse{RequestID: id, Error: err.Error(), Trace: trace}

	var (
		abort    *telemetry.AbortError
		internal *pipeline.PanicError
	)
	switch {
	case errors.As(err, &internal):
		s.reg.CounterAdd("diospyros_serve_internal_errors_total",
			"Compiles that panicked; each was recovered and answered 500.", nil, 1)
		log.Error("compile panicked", "panic", fmt.Sprint(internal.Value), "stack", string(internal.Stack))
		return resp, http.StatusInternalServerError
	case errors.As(err, &abort):
		resp.Aborted = abort.Reason
		s.reg.CounterAdd("diospyros_serve_saturation_aborts_total",
			"Compiles aborted by the saturation watchdog, by budget.",
			map[string]string{"reason": abort.Reason}, 1)
		log.Warn("compile aborted by watchdog", "reason", abort.Reason)
		return resp, http.StatusUnprocessableEntity
	case r.Context().Err() != nil:
		s.countCancelled("compiling")
		log.Info("compile cancelled by client")
		return resp, httpStatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		s.reg.CounterAdd("diospyros_serve_timeouts_total",
			"Compiles that hit the server's request deadline.", nil, 1)
		log.Warn("compile hit request deadline", "err", err)
		return resp, http.StatusGatewayTimeout
	default:
		log.Warn("compile failed", "err", err)
		return resp, http.StatusBadRequest
	}
}

func (s *Server) setQueueGauge() {
	s.reg.GaugeSet("diospyros_serve_queue_depth",
		"Requests waiting for a worker slot.", nil, float64(s.queued.Load()))
}

func (s *Server) countCancelled(phase string) {
	s.reg.CounterAdd("diospyros_serve_cancelled_total",
		"Requests cancelled by the client, by phase.",
		map[string]string{"phase": phase}, 1)
}

// parseRequest extracts kernel source and per-request option overrides:
// JSON (CompileRequest) when the Content-Type says so, raw kernel source
// otherwise.
func (s *Server) parseRequest(r *http.Request, body []byte) (string, diospyros.Options, error) {
	opts := s.cfg.Options
	if ct := r.Header.Get("Content-Type"); ct == "application/json" {
		var req CompileRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return "", opts, fmt.Errorf("bad JSON request: %w", err)
		}
		if req.Source == "" {
			return "", opts, errors.New("missing \"source\" field")
		}
		if req.TimeoutMS > 0 {
			opts.Timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
		opts.DisableVectorRules = opts.DisableVectorRules || req.NoVector
		opts.Validate = opts.Validate || req.Validate
		opts.Explain = opts.Explain || req.Explain
		if len(req.Targets) > 0 {
			opts.Targets = req.Targets
		}
		return req.Source, opts, nil
	}
	if len(body) == 0 {
		return "", opts, errors.New("empty request body")
	}
	return string(body), opts, nil
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, id, msg string) {
	s.writeJSON(w, code, &CompileResponse{RequestID: id, Error: msg})
}

// writeTimedError is writeError for a request that has a phase path: a
// shed or cancelled request still reports the phases it ran.
func (s *Server) writeTimedError(w http.ResponseWriter, code int, id, msg string, tm *timing) {
	s.stamp(w.Header(), tm)
	s.writeError(w, code, id, msg)
}
