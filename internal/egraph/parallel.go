package egraph

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// The match phase. Equality saturation alternates a read-only search phase
// (every rule matched against every e-class) with a mutating apply/rebuild
// phase. The search phase dominates compile time on large kernels and is
// embarrassingly parallel: this file shards the canonical e-class list
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

// ShardedRewrite is optionally implemented by rewrites whose search can be
// restricted to a subset of e-classes. The runner uses it to shard the
// match phase across workers: each shard is a contiguous run of the
// canonical class list (sorted by ID), and the per-shard results are
// concatenated in shard order, so implementations must derive matches from
// the given classes only, in the order given. SearchClasses must be
// read-only and safe for concurrent use with other searchers.
//
// Rewrites that do not implement the interface still participate in
// parallel matching — each one runs as a single whole-graph Search task —
// but cannot be split across workers.
type ShardedRewrite interface {
	Rewrite
	// SearchClasses returns the rewrite's matches within the given
	// canonical classes, in class order.
	SearchClasses(g *EGraph, classes []*EClass) []Match
}

// SearchClasses restricts the syntactic pattern search to the given
// classes, making every parsed rewrite shardable.
func (r *patternRewrite) SearchClasses(g *EGraph, classes []*EClass) []Match {
	var out []Match
	for _, cls := range classes {
		out = append(out, g.matchClass(r.lhs, cls.ID)...)
	}
	return out
}

// matchShardMin is the smallest shard handed to one match task. Shards
// cheaper than this cost more in scheduling than they win in parallelism.
const matchShardMin = 32

// matchParallelMinClasses gates the worker pool: graphs smaller than this
// search faster inline than the pool spins up. The cutover is
// behavior-neutral — results are identical on both paths.
const matchParallelMinClasses = 64

// ruleMatches is one rule's merged search result for one iteration.
type ruleMatches struct {
	rule    Rewrite
	matches []Match
	// searchDur sums the rule's per-shard search times — attributed CPU
	// time, not wall time (shards run concurrently). The iteration gauge's
	// Duration and the saturate stage span stay wall-clock.
	searchDur time.Duration
}

// searchParallel is the runner's match phase: it searches rules over g on
// a pool of up to workers goroutines and returns per-rule matches in rule
// order, each rule's matches in canonical e-class order, so the result is
// identical at any pool size. The pool only spins up for graphs of at
// least matchParallelMinClasses classes; otherwise (or when workers is 1)
// the tasks run inline, one per rule. The caller must pass only rules
// eligible to search this iteration (bans already filtered).
//
// index is the wall time of the serial prologue that builds the head
// index; the rest of the call is the match proper. cancelled reports that
// ctx fired during the phase (it is polled between tasks and once after
// the last); partial results are discarded and the caller stops the run.
func searchParallel(ctx context.Context, g *EGraph, rules []Rewrite, workers int) (out []ruleMatches, index time.Duration, cancelled bool) {
	// Serial prologue: after this, Find is write-free until the next Union.
	start := time.Now()
	g.CompressPaths()
	classes := g.CanonicalClasses()
	ix := HeadIndex(classes)
	index = time.Since(start)

	// Inline runs give each rule a single task. Pool runs derive shard
	// granularity from the full class count, not per-rule candidate counts,
	// so the cost of one shard is comparable across rules regardless of how
	// selective their head-op filters are.
	inline := workers <= 1 || len(classes) < matchParallelMinClasses
	shardSize := len(classes) + 1
	if !inline {
		shardSize = max(len(classes)/(workers*4), matchShardMin)
	}

	// A task searches one rule over candidates[rule][lo:hi] (the whole
	// graph for rules that are not shardable). Tasks are rule-major, shards
	// in canonical class order.
	type task struct{ rule, lo, hi int }
	tasks := make([]task, 0, len(rules))
	candidates := make([][]*EClass, len(rules))
	for i, r := range rules {
		if _, ok := r.(ShardedRewrite); !ok {
			tasks = append(tasks, task{rule: i})
			continue
		}
		// Shardable rules scan only their head-op candidates, split into
		// contiguous runs of the (ID-ordered) candidate list; the
		// rule-major, class-ordered merge below makes the shard layout
		// invisible downstream.
		cand := ix.Candidates(r)
		candidates[i] = cand
		for lo := 0; ; lo += shardSize {
			tasks = append(tasks, task{i, lo, min(lo+shardSize, len(cand))})
			if lo+shardSize >= len(cand) {
				break
			}
		}
	}
	results := make([][]Match, len(tasks))
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
			start := time.Now()
			if sr, ok := rules[t.rule].(ShardedRewrite); ok {
				results[k] = sr.SearchClasses(g, candidates[t.rule][t.lo:t.hi])
			} else {
				results[k] = rules[t.rule].Search(g)
			}
			durs[k] = time.Since(start)
		}
	}
	if inline {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < min(workers, len(tasks)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if stop() {
		return nil, index, true
	}

	// Deterministic merge: rule order, then shard (= canonical class) order.
	out = make([]ruleMatches, len(rules))
	for k := 0; k < len(tasks); {
		i, end, total := tasks[k].rule, k, 0
		for ; end < len(tasks) && tasks[end].rule == i; end++ {
			total += len(results[end])
		}
		rm := ruleMatches{rule: rules[i], matches: results[k]}
		if end-k > 1 {
			rm.matches = make([]Match, 0, total)
			for _, ms := range results[k:end] {
				rm.matches = append(rm.matches, ms...)
			}
		}
		for _, d := range durs[k:end] {
			rm.searchDur += d
		}
		out[i] = rm
		k = end
	}
	return out, index, false
}
