package serve

import (
	"net/http"
	"time"

	"diospyros/internal/telemetry"
)

// Per-request timing: every POST /compile reply that passes parsing
// reports the telemetry phase path it ran (DESIGN.md §7) — queue (0 for
// hits and coalesced followers, which skip admission), cache when it was
// consulted, compile (the pipeline run with its compile.* children on a
// miss or bypass, the lookup on a hit, the wait on a coalesced follower;
// a shed never compiles) and serialize — as the X-Dios-Server-Timing
// header and as samples of diospyros_phase_seconds{cache,path}, whose
// cache label (hit, miss, coalesced or bypass) keeps compile latency
// queryable by cache outcome.

// cacheBypass labels requests that never consulted the cache (cache
// disabled, streaming, or non-cacheable options).
const cacheBypass = "bypass"

// timing accumulates one request's phase path as the handler moves through
// cache, admission, compile and reply marshalling. It starts with a zero
// queue entry, so queue leads the list although the cache is consulted
// before admission.
type timing struct {
	cache  string // how the cache resolved the request
	phases []telemetry.Phase
}

func (tm *timing) add(path string, d time.Duration) {
	tm.phases = append(tm.phases, telemetry.Phase{Path: path, Duration: d})
}

// addCompile appends the compile entry, d as the handler measured it, and
// the compile.* children of the compile's trace (nil when the pipeline
// never returned one).
func (tm *timing) addCompile(d time.Duration, trace *telemetry.Trace) {
	tm.add("compile", d)
	if trace != nil {
		tm.phases = append(tm.phases, trace.Phases()[1:]...) // [0] is compile
	}
}

// stamp sets the X-Dios-Server-Timing header and folds the phases into
// diospyros_phase_seconds; it runs before the reply's headers are written.
func (s *Server) stamp(h http.Header, tm *timing) {
	h.Set("X-Dios-Server-Timing", telemetry.FormatServerTiming(tm.phases))
	s.observePhases(tm.cache, tm.phases)
}

// observePhases records each phase into diospyros_phase_seconds.
func (s *Server) observePhases(cache string, ps []telemetry.Phase) {
	for _, p := range ps {
		s.reg.Observe("diospyros_phase_seconds",
			"Per-request wall time by phase path and cache outcome.",
			map[string]string{"cache": cache, "path": p.Path}, nil, p.Duration.Seconds())
	}
}
