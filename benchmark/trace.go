package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a compiler layer, recorded by the benchmark
// around its own call (no instrumentation inside the compiler). Every op
// has one root span named "op"; the layer spans of that op are its
// children and share its Op number.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Name   string `json:"name"`
	Kernel string `json:"kernel,omitempty"` // root spans only
	Start  int64  `json:"start_ns"`         // since the tracer was created
	End    int64  `json:"end_ns"`
	Alloc  int64  `json:"alloc_bytes"` // heap bytes allocated inside the span
	Err    bool   `json:"error,omitempty"`
}

// tracer keeps a run's spans and per-op counts in memory until the run
// ends. A nil *tracer records nothing, so the untraced pass runs exactly
// the same chain code with tracing off.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int // IDs of the spans not yet ended, innermost last
	op     int
	counts map[string]float64 // summed over every op traced so far
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		counts: map[string]float64{},
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocs() int64 {
	metrics.Read(t.sample)
	return int64(t.sample[0].Value.Uint64())
}

// beginOp opens the root span of a new op compiling kernel.
func (t *tracer) beginOp(kernel string) int {
	if t == nil {
		return -1
	}
	t.op++
	id := t.begin("op")
	t.spans[id].Kernel = kernel
	return id
}

// begin opens a span under the innermost open span and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Alloc: t.allocs()})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0)) // last, so the alloc read falls outside
	return id
}

// end closes span id, which must be the innermost open span, marking it
// failed when err is non-nil.
func (t *tracer) end(id int, err error) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.Alloc = t.allocs() - s.Alloc
	s.Err = err != nil
	t.open = t.open[:len(t.open)-1]
}

// count adds v to the named per-op count.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its direct children, and its allocations minus its
// children's. Children may be adjacent or overlap one another; a grandchild
// is already inside its parent, so it is never subtracted twice.
func selfTimes(spans []span) (self, selfAlloc []int64) {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make([]int64, len(spans))
	selfAlloc = make([]int64, len(spans))
	for i, p := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), p.Start
		alloc := p.Alloc
		for _, c := range kids {
			lo, hi := max(c.Start, reach), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
			alloc -= c.Alloc
		}
		self[i] = p.End - p.Start - covered
		selfAlloc[i] = alloc
	}
	return self, selfAlloc
}

// traceFile is the layout of benchmark-trace.<workload>.json.
type traceFile struct {
	Schema     string     `json:"schema"`
	Workload   string     `json:"workload"`
	Provenance provenance `json:"provenance"`
	Spans      []span     `json:"spans"`
}

func writeTrace(path, workload string, prov provenance, spans []span) error {
	b, err := json.Marshal(traceFile{
		Schema:     "diospyros-benchmark/trace/v1",
		Workload:   workload,
		Provenance: prov,
		Spans:      spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
