package telemetry

import (
	"encoding/json"
	"fmt"
	"time"
)

// NamedTrace pairs a trace with the name it is exported under (a kernel ID
// for benchmark runs, or the compile's kernel name for a single compile).
//
// RequestID and Epoch describe server-request traces: a trace carrying a
// RequestID is exported into the shared server process with its own thread
// lane per request (request ID → tid), and Epoch shifts its timestamps to
// the request's start relative to the export's common time base, so
// overlapping compiles from concurrent requests render as overlapping —
// not interleaved — lanes.
type NamedTrace struct {
	Name      string
	RequestID string
	Epoch     time.Duration
	Trace     *Trace
}

// chromeEvent is one entry of the Chrome trace-event format's traceEvents
// array (the JSON loadable in chrome://tracing and Perfetto). Timestamps
// and durations are in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the JSON-object form of a trace-event file.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ChromeTrace renders one trace as a Chrome trace-event JSON file; the
// single process is named after the trace. See ChromeTraces for the
// multi-kernel form.
func (t *Trace) ChromeTrace(name string) ([]byte, error) {
	return ChromeTraces([]NamedTrace{{Name: name, Trace: t}})
}

// ChromeTraces renders traces as one Chrome trace-event JSON file — the
// -trace-out artifact. Each trace gets one thread lane holding its phase
// path as nested slices: the stage spans, the saturation iterations laid
// back to back under the saturate span, and each iteration's index, match,
// apply and rebuild steps under it; counters attach to a final instant
// event. A plain trace becomes its own "process" named after the kernel.
// Traces carrying a RequestID instead share a single "diosserve" process,
// one lane per request, with timestamps shifted by their Epoch, so
// concurrent requests render as parallel lanes on a common timeline. The
// output is the JSON-object form with a traceEvents array, which both
// chrome://tracing and Perfetto accept.
func ChromeTraces(traces []NamedTrace) ([]byte, error) {
	const serverPid = 1
	f := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	serverNamed := false
	for i, nt := range traces {
		t := nt.Trace
		if t == nil {
			continue
		}
		pid, tid := i+1, 1
		lane := "phases"
		base := nt.Epoch
		name := nt.Name
		if name == "" {
			name = fmt.Sprintf("compile %d", pid)
		}
		if nt.RequestID != "" {
			// Server-request trace: shared process, one tid per request.
			pid, tid = serverPid, i+1
			lane = nt.RequestID + " " + name
			if !serverNamed {
				f.TraceEvents = append(f.TraceEvents, chromeEvent{
					Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
					Args: map[string]any{"name": "diosserve"}})
				serverNamed = true
			}
		} else {
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
				Args: map[string]any{"name": name}})
		}
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": lane}})
		slice := func(name, cat string, at, dur time.Duration, args map[string]any) {
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: name, Ph: "X", Cat: cat, Pid: pid, Tid: tid,
				Ts: micros(base + at), Dur: micros(dur), Args: args})
		}
		// Gauges record durations only; lay the iterations out back to
		// back from the saturate span's start, and each iteration's steps
		// back to back from its own start, in loop order.
		var at time.Duration
		for _, s := range t.Stages {
			slice(s.Name, "stage", s.Start, s.Duration,
				map[string]any{"alloc_bytes": s.AllocBytes})
			if s.Name == "saturate" {
				at = s.Start
			}
		}
		for _, g := range t.Iterations {
			slice(fmt.Sprintf("iteration %d", g.Iteration), "saturation", at, g.Duration,
				map[string]any{
					"nodes":   g.Nodes,
					"classes": g.Classes,
					"matches": g.Matches,
					"applied": g.Applied,
				})
			step := at
			for _, ph := range []struct {
				name string
				d    time.Duration
			}{{"index", g.Index}, {"match", g.Match}, {"apply", g.Apply}, {"rebuild", g.Rebuild}} {
				if ph.d > 0 {
					slice(ph.name, "phase", step, ph.d, nil)
					step += ph.d
				}
			}
			at += g.Duration
		}
		if len(t.Counters) > 0 || t.StopReason != "" {
			args := map[string]any{}
			for k, v := range t.Counters {
				args[k] = v
			}
			if t.StopReason != "" {
				args["stop_reason"] = t.StopReason
			}
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: "counters", Ph: "i", S: "p", Pid: pid, Tid: tid,
				Ts: micros(base + t.Duration), Args: args,
			})
		}
	}
	return json.MarshalIndent(f, "", " ")
}
