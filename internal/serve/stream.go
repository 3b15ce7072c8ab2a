package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	diospyros "diospyros"
	"diospyros/internal/egraph"
	"diospyros/internal/telemetry"
)

// Live compile streaming: a POST /compile with "Accept: text/event-stream"
// watches its own equality saturation as Server-Sent Events. The handler
// arms the flight recorder (egraph.Journal), polls it while the compile
// runs, and relays each completed iteration's gauge — e-graph size and
// footprint, one rule row per matching rule (Backoff bans marked on their
// row), the best cost — as an "iteration" event. The stream ends with a
// "result" event carrying the same CompileResponse the plain JSON path
// returns, plus a "status" field holding the HTTP status the JSON path
// would have used (SSE commits to 200 before the compile finishes).
// Keep-alive comments flow every Config.StreamHeartbeat so idle proxies
// keep the connection open.
//
//	curl -N -H 'Accept: text/event-stream' --data-binary @kernel.dios \
//	     http://localhost:8080/compile

// streamPoll is the journal polling cadence. Saturation iterations on real
// kernels take milliseconds to seconds; 25 ms keeps the stream snappy
// without measurable polling load.
const streamPoll = 25 * time.Millisecond

// streamResult is the terminal SSE event: the plain endpoint's response
// plus the status code it would have carried.
type streamResult struct {
	*CompileResponse
	Status int `json:"status"`
}

// wantsStream reports whether the client asked for Server-Sent Events.
func wantsStream(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// streamCompile runs the compile with the journal armed and streams its
// gauges to w. Returns false (without writing anything) when w cannot
// stream, letting the caller fall back to the plain JSON path. The caller
// has already taken a worker slot and armed the watchdog; streamCompile
// only returns once the compile goroutine has finished, so the deferred
// slot release stays correct. The stream's X-Dios-Server-Timing header
// carries the phases known when it commits (queue, and cache if
// consulted); the compile's phases reach diospyros_phase_seconds once it
// finishes.
func (s *Server) streamCompile(w http.ResponseWriter, r *http.Request, cctx context.Context, id, src string, opts diospyros.Options, tm *timing) bool {
	fl, ok := w.(http.Flusher)
	if !ok {
		return false
	}
	log := telemetry.LoggerFrom(r.Context())

	jr := egraph.NewJournal()
	opts.Journal = jr

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	s.stamp(w.Header(), tm)
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	s.reg.CounterAdd("diospyros_serve_streams_total",
		"Compiles streamed over SSE.", nil, 1)
	log.Info("compile stream start", "bytes", len(src))

	type outcome struct {
		res *diospyros.Result
		err error
	}
	done := make(chan outcome, 1)
	started := time.Now()
	go func() {
		res, err := s.compileFn(cctx, src, opts)
		done <- outcome{res, err}
	}()

	sent := 0
	clientGone := false
	flush := func() {
		gs := jr.GaugesSince(sent)
		sent += len(gs)
		if clientGone || len(gs) == 0 {
			return
		}
		for _, g := range gs {
			writeSSE(w, "iteration", g)
		}
		fl.Flush()
	}

	poll := time.NewTicker(streamPoll)
	defer poll.Stop()
	heartbeat := time.NewTicker(s.cfg.StreamHeartbeat)
	defer heartbeat.Stop()

	for {
		select {
		case <-poll.C:
			flush()
		case <-heartbeat.C:
			if !clientGone {
				fmt.Fprint(w, ": heartbeat\n\n")
				fl.Flush()
			}
		case <-cctx.Done():
			if r.Context().Err() != nil && !clientGone {
				// The client hung up mid-stream — the SSE twin of the
				// plain path's 499. Keep draining until the compile
				// goroutine notices the cancellation, so the worker slot
				// is not released while the compile still runs.
				clientGone = true
				s.countCancelled("streaming")
				log.Info("compile stream client went away")
			}
		case out := <-done:
			flush()
			committed := len(tm.phases)
			tm.addCompile(time.Since(started), traceOf(out.res))
			s.observePhases(tm.cache, tm.phases[committed:])
			if out.res != nil {
				s.observeCompile(out.res.Trace)
				s.traces.record(id, kernelName(out.res), started, out.res.Trace)
			}
			if !clientGone && r.Context().Err() != nil {
				// The compile's return and the disconnect notification
				// race; a dead client is a streaming cancellation no
				// matter which select case saw it first.
				clientGone = true
				s.countCancelled("streaming")
				log.Info("compile stream client went away")
			}
			if clientGone {
				// Counted as a streaming cancellation; nobody is
				// listening for the result event.
				return true
			}
			var resp *CompileResponse
			status := http.StatusOK
			if out.err != nil {
				resp, status = s.classifyError(r, id, out.err, traceOf(out.res))
			} else {
				resp = s.successResponse(r, id, out.res)
			}
			writeSSE(w, "result", streamResult{CompileResponse: resp, Status: status})
			fl.Flush()
			return true
		}
	}
}

func traceOf(res *diospyros.Result) *telemetry.Trace {
	if res == nil {
		return nil
	}
	return res.Trace
}

// writeSSE emits one Server-Sent Event. JSON marshalling never embeds raw
// newlines, so a single data: line is always enough.
func writeSSE(w http.ResponseWriter, event string, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		raw = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, raw)
}
