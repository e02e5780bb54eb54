package sched

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"specdis/internal/ir"
)

// Cache shares list schedules between dependence graphs of equal content.
// Most graphs of an evaluation repeat: NAIVE, STATIC and PERFECT differ only
// in arcs, and SpD leaves most trees alone, so a sweep that builds every
// cell's graphs finds few distinct ones.
//
// The key is exactly what the schedulers read of a graph (appendKey), not
// the tree the graph was built from: the graph depends on more of the tree
// (op blocks, block parents, call arguments, guard definitions) than any
// tree key short of the whole tree would hold. A Cache keeps only keys and
// completion-cycle tables, no tree, graph or program, so it never keeps a
// program alive. The tables it returns are shared and must not be written.
//
// A Cache is safe for concurrent use, and each distinct key is scheduled
// exactly once, however many callers ask for it at once.
type Cache struct {
	mu sync.Mutex
	m  map[string]*cacheEntry

	graphs, distinct, listRuns atomic.Int64

	// flightHook, when set, runs as a caller starts scheduling a key
	// (leader) or starts waiting on another caller's (!leader): tests use it
	// to hold a key in flight.
	flightHook func(leader bool)
}

// cacheEntry is one key's tables; done closes once they are set, or once
// the scheduling call that was computing them panicked.
type cacheEntry struct {
	done  chan struct{}
	comps [][]int64
	ok    bool
}

// CacheStats are a Cache's work counters, with the JSON names
// BENCH_spdbench.json reports them under.
type CacheStats struct {
	// Graphs counts the graphs looked up (Comps calls), Distinct the ones
	// actually scheduled, and ListRuns the list-scheduler runs those took
	// after width saturation (comps).
	Graphs   int64 `json:"graphs"`
	Distinct int64 `json:"distinct"`
	ListRuns int64 `json:"list_runs"`
}

// NewCache returns an empty schedule cache.
func NewCache() *Cache {
	return &Cache{m: map[string]*cacheEntry{}}
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Graphs: c.graphs.Load(), Distinct: c.distinct.Load(), ListRuns: c.listRuns.Load()}
}

// keyBufs recycles the key buffers of Comps calls.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// Comps returns g's completion-cycle tables at every width in ns (0 = the
// infinite machine), parallel to ns: FromGraph(g, ns[i]).Comp for each i,
// scheduled once per distinct (graph content, ns) and shared after that.
//
// A panic while scheduling reaches the caller that was computing the key.
// Its entry is withdrawn first, so callers waiting on the same key wake and
// schedule it themselves, each in its own call.
func (c *Cache) Comps(g *ir.DepGraph, ns []int) [][]int64 {
	c.graphs.Add(1)
	buf := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(buf)
	*buf = appendKey((*buf)[:0], g, ns)
	for {
		c.mu.Lock()
		e, ok := c.m[string(*buf)]
		if !ok {
			key := string(*buf)
			e = &cacheEntry{done: make(chan struct{})}
			c.m[key] = e
			c.mu.Unlock()
			c.fill(e, key, g, ns)
			return e.comps
		}
		c.mu.Unlock()
		if c.flightHook != nil {
			c.flightHook(false)
		}
		<-e.done
		if e.ok {
			return e.comps
		}
	}
}

// fill schedules one key's entry, withdrawing the entry and waking its
// waiters if scheduling panics.
func (c *Cache) fill(e *cacheEntry, key string, g *ir.DepGraph, ns []int) {
	defer func() {
		if !e.ok {
			c.mu.Lock()
			delete(c.m, key)
			c.mu.Unlock()
		}
		close(e.done)
	}()
	if c.flightHook != nil {
		c.flightHook(true)
	}
	out, runs := comps(g, ns)
	c.distinct.Add(1)
	c.listRuns.Add(int64(runs))
	e.comps, e.ok = out, true
}

// appendKey appends what the schedulers read of g at widths ns: the widths,
// the op count, and for each op its latency, whether it is an exit, and its
// successor edges in order (the Pred lists hold the same edges). The
// encoding is prefix-free, so graphs with equal keys have equal schedules at
// every width and graphs that differ in any of these differ in key.
func appendKey(b []byte, g *ir.DepGraph, ns []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(ns)))
	for _, n := range ns {
		b = binary.AppendVarint(b, int64(n))
	}
	b = binary.AppendUvarint(b, uint64(len(g.Succ)))
	for i, succ := range g.Succ {
		exit := int64(0)
		if g.Tree.Ops[i].Kind == ir.OpExit {
			exit = 1
		}
		b = binary.AppendVarint(b, int64(g.Latency(i))<<1|exit)
		b = binary.AppendUvarint(b, uint64(len(succ)))
		for _, e := range succ {
			b = binary.AppendVarint(b, int64(e.To-i))
			b = binary.AppendVarint(b, int64(e.Delay))
		}
	}
	return b
}
