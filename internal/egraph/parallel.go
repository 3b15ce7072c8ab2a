package egraph

import (
	"context"
	"math/bits"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"diospyros/internal/pipeline"
)

// The match phase. Equality saturation alternates a read-only search phase
// (every rule matched against every e-class) with a mutating apply/rebuild
// phase. The search phase dominates compile time on large kernels and is
// embarrassingly parallel: this file shards each rule's candidate classes
// across a worker pool sized by the runner to GOMAXPROCS, collects matches
// into per-(rule, shard) buffers, and merges them in canonical (rule,
// e-class ID) order, so the runner's apply phase — and therefore the
// extracted program, the rule rows, and rewrite provenance — is bit-for-bit
// identical at any GOMAXPROCS.
//
// Safety rests on two invariants, both enforced by the runner:
//
//  1. Searchers never mutate the graph (the Rewrite contract). All
//     built-in rules defer node creation to Apply.
//  2. Find performs no union-find writes once paths are compressed. The
//     runner calls CompressPaths serially before fanning out, after which
//     every chain has length ≤ 1 and Find's path-halving never fires.

// matchShardMin is the smallest shard handed to one match task. Shards
// cheaper than this cost more in scheduling than they win in parallelism.
const matchShardMin = 32

// matchParallelMinClasses gates the worker pool: graphs smaller than this
// search faster inline than the pool spins up. The cutover is
// behavior-neutral — results are identical on both paths.
const matchParallelMinClasses = 64

// ruleMatches is one rule's merged search result for one iteration.
type ruleMatches struct {
	pos     int // the rule's position in the run's rule list
	rule    Rewrite
	matches []Match
	// carried flags the matches the rule's cache carried over from the
	// last iteration (bit j for matches[j]): the survivors of classes not
	// searched again, and the matches a search found again and reused. The
	// apply phase skips them.
	carried Bitset
	// searchDur sums the rule's per-shard search times — attributed CPU
	// time, not wall time (shards run concurrently). The iteration gauge's
	// Duration and the saturate stage span stay wall-clock.
	searchDur time.Duration
}

// matcher is one run's semi-naive match state, indexed by rule position.
type matcher struct {
	rules []Rewrite
	depth []int    // ReadDepth
	roots []uint64 // rootMask
	// cache holds each rule's merged match list from the last iteration it
	// searched; cached[i] is false while rule i has none (the run's first
	// iteration, or back from a ban).
	cache   [][]Match
	cached  []bool
	carried []Bitset    // per-rule carried flags, reused every iteration
	cand    [][]*EClass // per-rule candidate buffers, reused every iteration
	walk    dirtyWalk
}

func newMatcher(rules []Rewrite) *matcher {
	m := &matcher{
		rules:   rules,
		depth:   make([]int, len(rules)),
		roots:   make([]uint64, len(rules)),
		cache:   make([][]Match, len(rules)),
		cached:  make([]bool, len(rules)),
		carried: make([]Bitset, len(rules)),
		cand:    make([][]*EClass, len(rules)),
	}
	for i, r := range rules {
		m.depth[i] = r.ReadDepth()
		m.roots[i] = rootMask(r.RootOps())
	}
	return m
}

// forget drops rule i's cache. A rule that sits an iteration out misses
// that iteration's change log, so its matches cannot be brought up to
// date; a rule Backoff bans after its search never applied its fresh
// matches, so they must not be carried as applied.
func (m *matcher) forget(i int) {
	m.cache[i], m.cached[i] = nil, false
}

// search is the runner's match phase: it searches the eligible rules
// (positions in m.rules; bans already filtered) over g on a pool of up to
// workers goroutines and returns their matches in eligible order, each
// rule's matches in canonical e-class order, so the result is identical at
// any pool size and equal to each rule's search over every canonical class.
//
// A rule with a cache searches only the classes the dirty walk reached
// within its read depth and merges them with its cached matches; one
// without searches every canonical class. Both filter by RootOps. The
// pool only spins up for graphs of at least matchParallelMinClasses
// classes; otherwise (or when workers is 1) the tasks run inline.
//
// index is the wall time of the serial prologue (path compression, the
// dirty walk, candidate lists); the rest of the call is the match proper.
// cancelled reports that ctx fired during the phase (it is polled between
// tasks and once after the last); partial results are discarded and the
// caller stops the run.
func (m *matcher) search(ctx context.Context, g *EGraph, eligible []int, workers int) (out []ruleMatches, index time.Duration, cancelled bool) {
	// Serial prologue: after CompressPaths, Find is write-free until the
	// next Union.
	start := time.Now()
	g.CompressPaths()
	walkDepth, full := -1, false
	for _, i := range eligible {
		if m.cached[i] {
			walkDepth = max(walkDepth, m.depth[i])
		} else {
			full = true
		}
	}
	if walkDepth >= 0 {
		m.walk.walk(g, walkDepth)
	} else {
		g.changed = g.changed[:0]
	}
	var all []reachedClass
	if full {
		classes := g.CanonicalClasses()
		all = make([]reachedClass, len(classes))
		for k, cls := range classes {
			all[k] = reachedClass{cls: cls, ops: opMask(g, cls)}
		}
	}
	for _, i := range eligible {
		src, depth := all, 0
		if m.cached[i] {
			src, depth = m.walk.reached, m.depth[i]
		}
		// Count first, so the buffer grows at most once, to its exact size.
		n := 0
		for _, rc := range src {
			if rc.dist <= depth && rc.ops&m.roots[i] != 0 {
				n++
			}
		}
		cand := m.cand[i][:0]
		if cap(cand) < n {
			cand = make([]*EClass, 0, n)
		}
		for _, rc := range src {
			if rc.dist <= depth && rc.ops&m.roots[i] != 0 {
				cand = append(cand, rc.cls)
			}
		}
		m.cand[i] = cand
	}
	index = time.Since(start)

	// Inline runs give each rule a single task. Pool runs derive shard
	// granularity from the graph's class count, not per-rule candidate
	// counts, so the cost of one shard is comparable across rules.
	inline := workers <= 1 || g.NumClasses() < matchParallelMinClasses
	shardSize := g.NumClasses() + 1
	if !inline {
		shardSize = max(g.NumClasses()/(workers*4), matchShardMin)
	}

	// A task searches rule eligible[rule] over its candidates[lo:hi].
	// Tasks are rule-major, shards in canonical class order.
	type task struct{ rule, lo, hi int }
	tasks := make([]task, 0, len(eligible))
	for k, i := range eligible {
		n := len(m.cand[i])
		for lo := 0; ; lo += shardSize {
			tasks = append(tasks, task{k, lo, min(lo+shardSize, n)})
			if lo+shardSize >= n {
				break
			}
		}
	}
	results := make([][]Match, len(tasks))
	reused := make([]Bitset, len(tasks))
	durs := make([]time.Duration, len(tasks))

	done := ctx.Done()
	stop := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	var next atomic.Int64
	// work claims and runs tasks until none remain or ctx fires.
	work := func() {
		for !stop() {
			k := int(next.Add(1)) - 1
			if k >= len(tasks) {
				return
			}
			t := tasks[k]
			i := eligible[t.rule]
			start := time.Now()
			if t.hi > t.lo {
				results[k], reused[k] = m.rules[i].SearchClasses(g, m.cand[i][t.lo:t.hi], m.cache[i])
			}
			durs[k] = time.Since(start)
		}
	}
	if inline {
		work()
	} else {
		// A worker's panic would end the process, out of reach of the
		// stage's recover. The worker recovers it, stops the others from
		// claiming tasks, and the first one is raised again here, on the
		// stage goroutine, with the worker's value and stack.
		var (
			wg       sync.WaitGroup
			once     sync.Once
			panicked *pipeline.PanicError
		)
		for w := 0; w < min(workers, len(tasks)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						next.Store(int64(len(tasks)))
						once.Do(func() {
							panicked = &pipeline.PanicError{Value: p, Stack: debug.Stack()}
						})
					}
				}()
				work()
			}()
		}
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
	}
	if stop() {
		return nil, index, true
	}

	// Deterministic merge: rule order, then shard (= canonical class)
	// order; a cached rule's surviving matches merge in by class ID.
	out = make([]ruleMatches, len(eligible))
	for k := 0; k < len(tasks); {
		j, end, total := tasks[k].rule, k, 0
		for ; end < len(tasks) && tasks[end].rule == j; end++ {
			total += len(results[end])
		}
		i := eligible[j]
		rm := ruleMatches{pos: i, rule: m.rules[i], matches: results[k], carried: reused[k]}
		if end-k > 1 {
			rm.matches, rm.carried = make([]Match, 0, total), nil
			for s, ms := range results[k:end] {
				for b := range ms {
					if reused[k+s].Has(b) {
						rm.carried.Set(len(rm.matches) + b)
					}
				}
				rm.matches = append(rm.matches, ms...)
			}
		}
		for _, d := range durs[k:end] {
			rm.searchDur += d
		}
		if m.cached[i] {
			rm.matches, rm.carried = m.mergeCached(g, i, rm.matches, rm.carried)
		}
		m.cache[i], m.cached[i] = rm.matches, true
		out[j] = rm
		k = end
	}
	return out, index, false
}

// mergeCached merges rule i's fresh matches (over the classes it searched
// again, in class order) into its cached list, in place, and flags the
// carried matches in the returned bitset: the survivors, and the fresh
// matches refound flags (the search reused them from the cache). A cached
// match survives when its class is still canonical and was not searched
// again; the survivors and the fresh matches cover disjoint classes, so
// merging by class ID restores the order of a search over every class,
// each class's matches in the order its search produced them.
func (m *matcher) mergeCached(g *EGraph, i int, fresh []Match, refound Bitset) ([]Match, Bitset) {
	old, depth := m.cache[i], m.depth[i]
	kept := 0
	for _, mt := range old {
		if g.uf[mt.Class] == mt.Class && !m.walk.within(g, mt.Class, depth) {
			old[kept] = mt
			kept++
		}
	}
	clear(old[kept:])
	if kept == 0 {
		return fresh, refound
	}
	// Merge from the back so the survivors can stay where they are.
	n := kept + len(fresh)
	carried := m.carried[i].reset(n)
	m.carried[i] = carried
	out := slices.Grow(old[:kept], len(fresh))[:n]
	a, b := kept-1, len(fresh)-1
	for w := n - 1; b >= 0; w-- {
		if a >= 0 && out[a].Class > fresh[b].Class {
			out[w] = out[a]
			carried.Set(w)
			a--
		} else {
			out[w] = fresh[b]
			if refound.Has(b) {
				carried.Set(w)
			}
			b--
		}
	}
	// Survivors below every fresh match stay where they are.
	for w := 0; w <= a; w++ {
		carried.Set(w)
	}
	return out, carried
}

// Bitset is a dense set of small non-negative integers, such as the
// positions of a match list's carried or reused matches. The zero value
// is the empty set.
type Bitset []uint64

// reset returns b emptied and sized for n bits, reusing its storage.
func (b Bitset) reset(n int) Bitset {
	words := (n + 63) / 64
	if cap(b) < words {
		return make(Bitset, words)
	}
	b = b[:words]
	clear(b)
	return b
}

// Set adds j to the set, growing it as needed.
func (b *Bitset) Set(j int) {
	for len(*b) <= j/64 {
		*b = append(*b, 0)
	}
	(*b)[j/64] |= 1 << (j % 64)
}

// Has reports whether j is in the set.
func (b Bitset) Has(j int) bool { return j/64 < len(b) && b[j/64]&(1<<(j%64)) != 0 }

// Count returns the number of elements in the set.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}
