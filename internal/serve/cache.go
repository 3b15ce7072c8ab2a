package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	diospyros "diospyros"
	"diospyros/internal/isa"
)

// This file is the content-addressed compile cache behind POST /compile:
// identical (source, options) pairs are compiled once and served from
// memory afterwards. Three mechanisms cooperate (DESIGN.md §9):
//
//   - the cache key is a SHA-256 over the normalized kernel source and a
//     canonical rendering of every Options field that can change the
//     compiled output;
//   - a byte-budgeted LRU bounds memory: each stored Result is charged an
//     estimated response size and the least-recently-used entries are
//     evicted until the new one fits;
//   - an in-flight table coalesces concurrent identical requests
//     (singleflight): the first request becomes the leader and compiles,
//     later ones wait for its result instead of compiling again.
//
// The response carries the decision in an X-Dios-Cache header (hit, miss,
// or coalesced) and the diospyros_serve_cache_*_total counters aggregate
// it on /metrics. Requests that stream (SSE), install a custom cost model,
// or carry a journal bypass the cache entirely and get no header.

// compileCache is the LRU + singleflight state. All fields are guarded by
// mu; waiting for an in-flight leader happens outside the lock on the
// flight's done channel.
type compileCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	ll      *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element
	flights map[string]*cacheFlight
}

type cacheEntry struct {
	key  string
	res  *diospyros.Result
	size int64
}

// cacheFlight is one in-flight compile that followers may wait on. The
// leader sets res (nil on failure) and closes done exactly once.
type cacheFlight struct {
	done chan struct{}
	res  *diospyros.Result
}

func newCompileCache(budget int64) *compileCache {
	return &compileCache{
		budget:  budget,
		ll:      list.New(),
		entries: map[string]*list.Element{},
		flights: map[string]*cacheFlight{},
	}
}

// acquireState is the outcome of compileCache.acquire.
type acquireState int

const (
	cacheHit      acquireState = iota // res is the stored result
	cacheLeader                       // caller must compile and call finish
	cacheFollower                     // caller waits on the returned flight
)

// acquire resolves a key under one lock pass: a stored entry wins (and is
// refreshed in the LRU), else an in-flight leader is joined, else the
// caller becomes the leader of a new flight.
func (c *compileCache) acquire(key string) (*diospyros.Result, *cacheFlight, acquireState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).res, nil, cacheHit
	}
	if fl, ok := c.flights[key]; ok {
		return nil, fl, cacheFollower
	}
	fl := &cacheFlight{done: make(chan struct{})}
	c.flights[key] = fl
	return nil, fl, cacheLeader
}

// wait blocks until the flight's leader finishes or ctx is cancelled,
// returning the leader's result (nil on leader failure or cancellation).
func (fl *cacheFlight) wait(ctx context.Context) *diospyros.Result {
	select {
	case <-fl.done:
		return fl.res
	case <-ctx.Done():
		return nil
	}
}

// finish completes a leader's flight: a non-nil result is published to
// waiting followers and stored in the LRU; nil (failed compile) just
// releases the followers to compile for themselves. Returns the number of
// entries evicted to make room.
func (c *compileCache) finish(key string, fl *cacheFlight, res *diospyros.Result) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fl.res = res
	close(fl.done)
	delete(c.flights, key)
	if res == nil {
		return 0
	}
	size := resultSize(res)
	if size > c.budget {
		return 0 // larger than the whole cache; serve it but never store it
	}
	if el, ok := c.entries[key]; ok { // a racing leader already stored it
		c.ll.MoveToFront(el)
		return 0
	}
	for c.bytes+size > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		old := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, old.key)
		c.bytes -= old.size
		evicted++
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, size: size})
	c.bytes += size
	return evicted
}

// sizeBytes reports the cache's current charged size (for the gauge).
func (c *compileCache) sizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// resultSize estimates what caching a Result costs: the dominant response
// payloads (C text, assembly, trace JSON) plus a fixed overhead for the
// structs themselves. An estimate is fine — the budget bounds order of
// magnitude, not bytes.
func resultSize(res *diospyros.Result) int64 {
	size := int64(len(res.C)) + 1024
	if res.Program != nil {
		size += int64(len(res.Program.Disassemble()))
	}
	for i := range res.Targets {
		tr := &res.Targets[i]
		size += int64(len(tr.C)) + 256
		if tr.Program != nil {
			size += int64(len(tr.Program.Disassemble()))
		}
	}
	if res.Trace != nil {
		if raw, err := res.Trace.JSON(); err == nil {
			size += int64(len(raw))
		}
	}
	return size
}

// cacheableRequest reports whether a compile may be served from (and
// stored into) the cache. Streaming compiles replay the live flight
// recorder and must run; a caller-supplied cost model or journal is
// process state the key cannot capture.
func cacheableRequest(opts diospyros.Options) bool {
	return opts.CostModel == nil && opts.Journal == nil && opts.Progress == nil
}

// compileCacheKey derives the content address of a compile: SHA-256 over
// the normalized source and the canonical options rendering.
func compileCacheKey(src string, opts diospyros.Options) string {
	h := sha256.New()
	h.Write([]byte(normalizeSource(src)))
	h.Write([]byte{0})
	h.Write([]byte(canonicalOptions(opts)))
	return hex.EncodeToString(h.Sum(nil))
}

// normalizeSource canonicalizes representation-only differences so
// trivially re-encoded kernels share a cache entry: CRLF line endings
// become LF, trailing whitespace is stripped per line, and trailing blank
// lines are dropped. Anything deeper (indentation, comments) is left
// alone — the language is whitespace-sensitive enough that aggressive
// normalization could merge kernels that do not compile identically.
func normalizeSource(src string) string {
	src = strings.ReplaceAll(src, "\r\n", "\n")
	lines := strings.Split(src, "\n")
	for i := range lines {
		lines[i] = strings.TrimRight(lines[i], " \t")
	}
	for len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return strings.Join(lines, "\n")
}

// canonicalOptions renders every output-affecting Options field in a fixed
// order. Map iteration order is neutralized by sorting OpCost keys. Targets
// are keyed as the compile resolves them: deduplicated in request order,
// with an empty list meaning the default target, so spellings that compile
// identically share one entry.
func canonicalOptions(o diospyros.Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "timeout=%d;nodes=%d;iters=%d;novec=%t;backoff=%t;validate=%t;explain=%t;",
		int64(o.Timeout), o.NodeLimit, o.MaxIterations,
		o.DisableVectorRules, o.UseBackoff, o.Validate, o.Explain)
	targets := o.Targets
	if len(targets) == 0 {
		targets = []string{isa.Default().Name}
	}
	seen := map[string]bool{}
	for _, t := range targets {
		if !seen[t] {
			seen[t] = true
			fmt.Fprintf(&b, "target=%q;", t)
		}
	}
	for _, r := range o.ExtraRules {
		fmt.Fprintf(&b, "rule=%q|%q|%q;", r.Name, r.LHS, r.RHS)
	}
	if len(o.OpCost) > 0 {
		keys := make([]string, 0, len(o.OpCost))
		for k := range o.OpCost {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "opcost=%q=%v;", k, o.OpCost[k])
		}
	}
	return b.String()
}
