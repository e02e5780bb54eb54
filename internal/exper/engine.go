package exper

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"specdis/internal/bench"
	"specdis/internal/disamb"
)

// group is a singleflight-style memoizing call group: the first Do for a key
// runs fn; concurrent Do calls for the same key wait for that one in-flight
// computation; later calls return the cached result (or error) immediately.
// The zero value is ready to use.
type group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*groupCall[V]
}

type groupCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the value for key, computing it with fn exactly once across all
// concurrent and future callers.
func (g *group[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[K]*groupCall[V]{}
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &groupCall[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()
	c.val, c.err = fn()
	close(c.done)
	return c.val, c.err
}

// Stats are cumulative counters of the work a Runner has actually performed
// (deduplicated cells, not requests). Every counter is maintained with
// atomics and Stats may be called at any time — including from other
// goroutines while the worker pool is still warming cells; see
// TestStatsWhileWarming. The snapshot is monotonic per counter but not a
// single atomic cut across counters.
type Stats struct {
	// Prepares counts distinct compile+transform pipeline runs.
	Prepares int64
	// Measures counts distinct timed measurement cells (one cell prices all
	// of its machine models at once). ReplayCells + InterpCells == Measures
	// once the runner is idle.
	Measures int64
	// SimOps counts dynamic operations priced across all measurement cells
	// — operations interpreted (interp backend) or replayed from a trace
	// (replay backend). The two backends report identical totals.
	SimOps int64
	// TraceCaptures counts distinct execution traces materialized, whether
	// piggybacked on a profiling run or captured by a dedicated recording
	// interpretation. TraceHits counts trace requests served from the cache
	// instead.
	TraceCaptures, TraceHits int64
	// TraceEvents and TraceBytes total the recorded events and the encoded
	// histogram bytes of all captured traces.
	TraceEvents, TraceBytes int64
	// ReplayCells and InterpCells split Measures by simulation backend.
	ReplayCells, InterpCells int64
	// BCodeCompiled counts decision trees lowered to bytecode across every
	// preparation (bytecode backend only); BCodeInstrs their total
	// instruction words; BCodeCacheHits the tree executions' compiled-program
	// lookups served from a prepared program's shared cache.
	BCodeCompiled, BCodeInstrs, BCodeCacheHits int64
	// NativeSteps, NativeFused, and NativeWindows describe the native tier's
	// compiled closure chains (native backend only): total chain steps after
	// fusion, superinstruction heads among them, and how many of those heads
	// are 3- or 4-wide window fusions. TierUps counts trees adaptive tiering
	// promoted from the bytecode rung to the native tier (Runner.TierUp).
	NativeSteps, NativeFused, NativeWindows, TierUps int64
	// CellFailures counts distinct cells that failed after exhausting their
	// degradation ladder; CellPanics, FuelExhausted, and DeadlineExceeded
	// split those failures by class (the remainder is corrupt-trace,
	// missing-schedule, and unclassified failures).
	CellFailures, CellPanics, FuelExhausted, DeadlineExceeded int64
	// NCodeFallbacks counts native-engine cell failures retried on the
	// bytecode engine; BCodeFallbacks counts bytecode-engine cell failures
	// retried on the reference tree walker; TraceRecaptures counts corrupt
	// traces replaced by a fresh per-cell capture; InterpFallbacks counts
	// replay-backend cells that fell all the way back to interpreting
	// measurement. All four count rungs taken, whether or not the rung then
	// succeeded.
	NCodeFallbacks, BCodeFallbacks, TraceRecaptures, InterpFallbacks int64
	// FaultsInjected counts cells the runner's fault-injection plan armed.
	// Zero unless the runner was built with a non-empty Inject plan.
	FaultsInjected int64
	// StorePreps, StoreMeasures, and StoreTraces count cells served whole
	// from the persistent artifact store (Runner.Store) instead of being
	// computed: prepare summaries, priced measurement cells, and captured
	// traces respectively. A fully warm run has Prepares == Measures ==
	// TraceCaptures == 0 with all the work accounted here.
	StorePreps, StoreMeasures, StoreTraces int64
}

// Stats returns a snapshot of the runner's work counters. Safe to call
// concurrently with running experiments.
func (r *Runner) Stats() Stats {
	// Load captures before requests: requests are incremented before their
	// capture runs, so this order keeps TraceHits non-negative even when
	// sampled mid-warm.
	captures := r.nTraceCaptures.Load()
	reqs := r.nTraceReqs.Load()
	return Stats{
		Prepares:         r.nPrepares.Load(),
		Measures:         r.nMeasures.Load(),
		SimOps:           r.nSimOps.Load(),
		TraceCaptures:    captures,
		TraceHits:        reqs - captures,
		TraceEvents:      r.nTraceEvents.Load(),
		TraceBytes:       r.nTraceBytes.Load(),
		ReplayCells:      r.nReplayCells.Load(),
		InterpCells:      r.nInterpCells.Load(),
		BCodeCompiled:    r.bcodeCtrs.Compiled.Load(),
		BCodeInstrs:      r.bcodeCtrs.Instrs.Load(),
		BCodeCacheHits:   r.bcodeCtrs.Hits.Load(),
		NativeSteps:      r.bcodeCtrs.Steps.Load(),
		NativeFused:      r.bcodeCtrs.Fused.Load(),
		NativeWindows:    r.bcodeCtrs.Windows.Load(),
		TierUps:          r.bcodeCtrs.TierUps.Load(),
		CellFailures:     r.nCellFails.Load(),
		CellPanics:       r.nPanics.Load(),
		FuelExhausted:    r.nFuel.Load(),
		DeadlineExceeded: r.nDeadline.Load(),
		NCodeFallbacks:   r.nNCodeFallback.Load(),
		BCodeFallbacks:   r.nBCodeFallback.Load(),
		TraceRecaptures:  r.nRecapture.Load(),
		InterpFallbacks:  r.nInterpFallback.Load(),
		FaultsInjected:   r.nInjected.Load(),
		StorePreps:       r.nStorePreps.Load(),
		StoreMeasures:    r.nStoreMeasures.Load(),
		StoreTraces:      r.nStoreTraces.Load(),
	}
}

// par returns the effective worker-pool width.
func (r *Runner) par() int {
	if r.Par > 0 {
		return r.Par
	}
	return runtime.GOMAXPROCS(0)
}

// warmTask selects what a warm cell computes.
type warmTask int

const (
	taskPrepare warmTask = iota // full preparation pipeline
	taskMeasure                 // timed measurement (implies preparation)
	taskSummary                 // prepare summary (store-served when warm)
)

// warmCell names one evaluation cell to warm: a (benchmark, pipeline,
// memory-latency) triple plus the task to run on it.
type warmCell struct {
	bench  *bench.Benchmark
	kind   disamb.Kind
	memLat int
	task   warmTask
}

// run executes the cell, populating the runner's caches. Errors are
// deliberately ignored: the caller's sequential assembly loop re-requests
// every cell, hits the cache, and surfaces the first error in deterministic
// iteration order — so parallel and sequential runs fail identically.
func (c warmCell) run(r *Runner) {
	switch c.task {
	case taskMeasure:
		_, _ = r.Measure(c.bench, c.kind, c.memLat)
	case taskSummary:
		_, _ = r.Summary(c.bench, c.kind, c.memLat)
	default:
		_, _ = r.Prepared(c.bench, c.kind, c.memLat)
	}
}

// cost estimates the cell's relative wall time for shard balancing. The
// absolute scale is meaningless; only ratios matter. Timed measurement
// dominates preparation by more than an order of magnitude (one cell prices
// 9–18 machine models), longer sources interpret proportionally longer, and
// latency-sensitive pipelines cannot share their cell across latencies.
func (c warmCell) cost() int64 {
	cost := int64(len(c.bench.Source)) + 1
	if c.kind.LatencySensitive() {
		cost *= 2
	}
	if c.task == taskMeasure {
		cost *= 20
	}
	return cost
}

// warm fans the given cells out across the work-stealing pool and waits for
// all of them; see warmAsync.
func (r *Runner) warm(cells []warmCell) { r.warmAsync(cells)() }

// warmAsync starts warming the given cells on the work-stealing pool and
// returns a wait function that blocks until every cell has been run. With an
// effective pool width of one it is a no-op (the caller's assembly loop does
// the work itself; warming would just push every cell through the cache path
// twice).
//
// Callers may begin consuming cells before wait returns: the singleflight
// layer under Prepared/Measure/Summary coalesces the consumer onto the
// warming computation, so rows stream out as their cells complete.
func (r *Runner) warmAsync(cells []warmCell) (wait func()) {
	workers := r.par()
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		return func() {}
	}
	costs := make([]int64, len(cells))
	for i, c := range cells {
		costs[i] = c.cost()
	}
	ctx := r.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		runStealing(ctx, workers, costs, func(i int) { cells[i].run(r) })
	}()
	return func() { <-done }
}

// stealDeque is one worker's task queue: indices into the shared task slice,
// highest estimated cost first. The owner pops from the front (finishing big
// tasks early bounds the makespan); thieves split off the back half.
type stealDeque struct {
	mu    sync.Mutex
	tasks []int
}

// pop removes and returns the front task.
func (d *stealDeque) pop() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return 0, false
	}
	t := d.tasks[0]
	d.tasks = d.tasks[1:]
	return t, true
}

// stealHalf removes and returns the back half (at least one task) of the
// deque, or nil if it is empty.
func (d *stealDeque) stealHalf() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks)
	if n == 0 {
		return nil
	}
	keep := n / 2
	stolen := append([]int(nil), d.tasks[keep:]...)
	d.tasks = d.tasks[:keep]
	return stolen
}

// push appends tasks to the back of the deque.
func (d *stealDeque) push(tasks []int) {
	d.mu.Lock()
	d.tasks = append(d.tasks, tasks...)
	d.mu.Unlock()
}

// runStealing executes every task index in [0, len(costs)) exactly once
// across a pool of workers, sharding by estimated cost and rebalancing by
// work stealing.
//
// Sharding is greedy LPT: tasks sorted by descending cost, each assigned to
// the least-loaded shard, so the static split is already near-balanced. When
// a worker drains its own deque it steals the back half of the first
// non-empty victim deque (scanning round-robin from its right neighbor) —
// cost estimates are only estimates, and stealing in bulk amortizes the
// synchronization while keeping the victim's biggest tasks local to it.
//
// Termination: tasks move between deques only by stealing and leave the
// system only by being claimed for execution; a claimed task always
// completes (tasks that block in the singleflight layer wait on a
// computation whose owner runs it inline). A worker that finds every deque
// empty therefore exits; tasks a thief holds mid-transfer are invisible to
// that scan but remain owned by a live worker, so every task still runs.
//
// Cancellation: once a worker observes ctx done it exits, abandoning its
// queued tasks instead of executing them — a cancelled request's cells must
// be skipped, not run and discarded (the engines would fail them with typed
// deadline errors anyway, but only after burning a full interpretation
// each). In-flight tasks finish; no task starts after its worker observes
// the cancellation. See TestStealingCancelSkipsQueued.
func runStealing(ctx context.Context, workers int, costs []int64, run func(task int)) {
	n := len(costs)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			run(i)
		}
		return
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	deques := make([]stealDeque, workers)
	load := make([]int64, workers)
	for _, t := range order {
		w := 0
		for i := 1; i < workers; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		deques[w].tasks = append(deques[w].tasks, t)
		load[w] += costs[t]
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(self int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				t, ok := deques[self].pop()
				if !ok {
					stolen := []int(nil)
					for i := 1; i < workers; i++ {
						if stolen = deques[(self+i)%workers].stealHalf(); stolen != nil {
							break
						}
					}
					if stolen == nil {
						return
					}
					deques[self].push(stolen)
					continue
				}
				run(t)
			}
		}(w)
	}
	wg.Wait()
}
