package main

import (
	"math/rand"
	"time"
)

// Calibration. The machines this benchmark runs on are shared, and their
// speed drifts: on a 2-vCPU VM, the compile throughput of ten consecutive
// 20 s runs of one build had an interquartile range of 34% of its median,
// and process CPU time drifted with wall time, so the slowdown is the
// processor's, not the scheduler's. No run length averages that away.
// Every timing metric is therefore divided by the median duration of a
// fixed probe, run at quiet moments throughout the same measuring window,
// and reported in probe units: a calibrated millisecond is the time the
// probe takes, which the probe's size puts close to a wall-clock
// millisecond on that VM. Drift moves the probe and the compiler alike and
// cancels; a change to the compiler moves only the compiler. The raw
// wall-clock numbers are in the detail line.

// probeGap is how often the compile loops run the probe: after the first
// op that ends at least this long after the previous probe.
const probeGap = 20 * time.Millisecond

// probe is the calibration workload. It shares no code with the compiler
// but does the two kinds of work that dominate a compile: map inserts and
// lookups (hash-consing) and a dependent pointer chase through a ring that
// fits in L2 (e-graph traversal). It allocates nothing after its first run,
// so it neither adds to alloc_mb_per_op nor depends on the garbage
// collector.
type probe struct {
	m     map[int]int
	ring  []uint32
	sink  uint64
	times []float64 // ms per run
	total time.Duration
	last  time.Time
}

func newProbe() *probe {
	const n = 1 << 16 // 256 KiB of uint32
	perm := rand.New(rand.NewSource(1)).Perm(n)
	ring := make([]uint32, n)
	for i := range perm {
		ring[perm[i]] = uint32(perm[(i+1)%n])
	}
	p := &probe{m: make(map[int]int, 8192), ring: ring}
	p.run() // first run sizes the map
	p.times, p.total = nil, 0
	return p
}

// run times one probe.
func (p *probe) run() {
	start := time.Now()
	clear(p.m)
	for k := 0; k < 8000; k++ {
		p.m[k*7919] = k
	}
	s := 0
	for k := 0; k < 32000; k++ {
		s += p.m[(k%8000)*7919]
	}
	i := uint32(0)
	for k := 0; k < 100_000; k++ {
		i = p.ring[i]
	}
	p.sink += uint64(s) + uint64(i)
	d := time.Since(start)
	p.times = append(p.times, float64(d)/float64(time.Millisecond))
	p.total += d
	p.last = time.Now()
}

// maybe runs the probe if probeGap has passed since the last one.
func (p *probe) maybe() {
	if time.Since(p.last) >= probeGap {
		p.run()
	}
}

// ms returns the median probe duration in milliseconds: one calibrated
// millisecond.
func (p *probe) ms() float64 { return median(p.times) }
