package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"diospyros/internal/egraph"
)

// Live compile streaming: a POST /compile with "Accept: text/event-stream"
// watches its own equality saturation as Server-Sent Events. The handler
// arms the flight recorder (egraph.Journal), and the compile loop
// (watchdog.go) relays each completed iteration's gauge — e-graph size and
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

// sseRelay is one streamed compile's side of the connection. Its methods
// are no-ops on a nil relay (a plain request) and write nothing once the
// client ctx is done. Write and flush errors are dropped: they mean the
// client is gone, which the handler reads from ctx.
type sseRelay struct {
	w     http.ResponseWriter
	rc    *http.ResponseController
	ctx   context.Context // the client's request context
	jr    *egraph.Journal
	sent  int // journal gauges relayed so far
	every time.Duration
	beat  time.Time // last keep-alive
}

// openStream commits w to an SSE stream and returns its relay, whose
// journal the compile must record into. The stream's X-Dios-Server-Timing
// header carries the phases known when it commits (queue); the compile's
// phases reach diospyros_phase_seconds once it finishes.
func (s *Server) openStream(ctx context.Context, w http.ResponseWriter, tm *timing) *sseRelay {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	s.stamp(w.Header(), tm)
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	_ = rc.Flush()
	s.reg.CounterAdd("diospyros_serve_streams_total",
		"Compiles streamed over SSE.", nil, 1)
	return &sseRelay{w: w, rc: rc, ctx: ctx, jr: egraph.NewJournal(),
		every: s.cfg.StreamHeartbeat, beat: time.Now()}
}

// relay sends the iteration gauges the journal gained since the last call.
func (st *sseRelay) relay() {
	if st == nil {
		return
	}
	gs := st.jr.GaugesSince(st.sent)
	st.sent += len(gs)
	if len(gs) == 0 || st.ctx.Err() != nil {
		return
	}
	for _, g := range gs {
		writeSSE(st.w, "iteration", g)
	}
	_ = st.rc.Flush()
}

// heartbeat sends a keep-alive comment once Config.StreamHeartbeat has
// passed since the last one.
func (st *sseRelay) heartbeat() {
	if st == nil || time.Since(st.beat) < st.every || st.ctx.Err() != nil {
		return
	}
	st.beat = time.Now()
	fmt.Fprint(st.w, ": heartbeat\n\n")
	_ = st.rc.Flush()
}

// result ends the stream with the compile's reply and the status the
// plain path would have answered.
func (st *sseRelay) result(resp *CompileResponse, status int) {
	writeSSE(st.w, "result", streamResult{CompileResponse: resp, Status: status})
	_ = st.rc.Flush()
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
