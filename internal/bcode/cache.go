package bcode

import (
	"container/list"
	"sync"
	"sync/atomic"

	"specdis/internal/ir"
)

// Counters accumulate compilation and cache statistics, shared across every
// cache a benchmark sweep creates (one counter set per exper.Runner). All
// fields are atomics; a Counters value must not be copied after first use.
//
// The counter set is shared with the native tier (internal/ncode), where
// Instrs counts emitted closure steps instead of instruction words.
type Counters struct {
	// Compiled counts trees lowered; Instrs their total instruction words
	// (bytecode) or closure steps (native code).
	Compiled, Instrs atomic.Int64
	// Hits counts Get calls served from the cache without compiling.
	Hits atomic.Int64
	// Steps and Fused are native-tier only: total closure steps emitted and
	// the superinstructions fused among them.
	Steps, Fused atomic.Int64
	// TierUps counts trees the simulator's adaptive tiering promoted from
	// the bytecode engine to the native tier after crossing the hot
	// threshold (sim.Runner.TierUp).
	TierUps atomic.Int64
	// Evictions counts entries a size-bounded cache dropped on capacity
	// (Cache.SetLimit); an evicted tree recompiles on its next execution.
	Evictions atomic.Int64
}

// LRU memoizes compiled trees by execution content (ir.AppendExecKey): two
// trees that execute identically — clones of one program handed to different
// benchmark cells, or the same source re-prepared under another
// disambiguator — share one compiled program no matter their identity or
// program position. Content addressing is also what makes the cache safe
// under transformation: a tree mutated after compilation keys differently
// and recompiles, instead of stale code mis-executing (the hazard the old
// PIdx-plus-pointer scheme guarded against by never hitting across clones at
// all).
//
// A cached program may consequently serve trees other than the one it was
// compiled from. That is sound because the executors read nothing
// tree-specific beyond the compiled code: memory bounds come from the Env at
// run time, and the caller resolves the taken exit's payload and its
// profiling tables from its own tree.
//
// One LRU serves both compiled tiers — Cache here and ncode.Cache — around
// a different compile function. Safe for concurrent use.
type LRU[P any] struct {
	mu      sync.Mutex
	ctrs    *Counters
	compile func(*ir.Tree, *Counters) *P
	ents    map[string]*list.Element // nil program: compile declined; tree runs on a fallback engine
	order   *list.List               // front = most recently used (holds *lruEnt[P])
	limit   int                      // max entries; 0 = unbounded
	key     []byte                   // scratch for ir.AppendExecKey
}

// lruEnt is one cached compilation, threaded through the LRU order list.
type lruEnt[P any] struct {
	key  string
	prog *P
}

// NewLRU returns an empty cache compiling through compile, which returns
// nil for a tree outside its repertoire and counts its own work into the
// Counters it is handed (nil when the cache has none). compile runs under
// the cache's lock, so each distinct tree compiles once. ctrs may be nil.
func NewLRU[P any](ctrs *Counters, compile func(*ir.Tree, *Counters) *P) *LRU[P] {
	return &LRU[P]{ctrs: ctrs, compile: compile, ents: map[string]*list.Element{}, order: list.New()}
}

// Cache is the bytecode tier's compiled-program cache.
type Cache = LRU[Prog]

// NewCache returns an empty bytecode cache. ctrs may be nil.
func NewCache(ctrs *Counters) *Cache { return NewLRU(ctrs, compileCounted) }

// compileCounted is the bytecode tier's compile function for the LRU.
func compileCounted(t *ir.Tree, ctrs *Counters) *Prog {
	p, err := Compile(t)
	if err != nil {
		return nil
	}
	if ctrs != nil {
		ctrs.Compiled.Add(1)
		ctrs.Instrs.Add(int64(len(p.Code)))
	}
	return p
}

// SetLimit bounds the cache to n entries, evicting least-recently-used
// compilations over capacity (0 restores the unbounded default). Long-running
// multi-tenant services set a limit so one pathological tenant cannot grow
// the shared cache without bound; an evicted tree simply recompiles on its
// next execution. Safe to call at any time, including while the cache is
// shared across goroutines.
func (c *LRU[P]) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
	c.evictLocked()
}

// Len returns the number of cached compilations.
func (c *LRU[P]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ents)
}

// Counters returns the cache's shared counter set (nil when none was
// attached) — the simulator's adaptive tiering reports tier-ups through it.
func (c *LRU[P]) Counters() *Counters { return c.ctrs }

// Get returns the tree's compiled program, compiling on first use of its
// execution content. A nil result means the tree is outside the tier's
// repertoire and must run on a fallback engine; that outcome is cached too.
func (c *LRU[P]) Get(t *ir.Tree) *P {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.key = ir.AppendExecKey(c.key[:0], t)
	if el, ok := c.ents[string(c.key)]; ok {
		c.order.MoveToFront(el)
		if c.ctrs != nil {
			c.ctrs.Hits.Add(1)
		}
		return el.Value.(*lruEnt[P]).prog
	}
	p := c.compile(t, c.ctrs)
	key := string(c.key)
	c.ents[key] = c.order.PushFront(&lruEnt[P]{key: key, prog: p})
	c.evictLocked()
	return p
}

func (c *LRU[P]) evictLocked() {
	if c.limit <= 0 {
		return
	}
	for len(c.ents) > c.limit {
		el := c.order.Back()
		if el == nil {
			return
		}
		c.order.Remove(el)
		delete(c.ents, el.Value.(*lruEnt[P]).key)
		if c.ctrs != nil {
			c.ctrs.Evictions.Add(1)
		}
	}
}
