package exper

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/sched"
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
//
// Stats is also the JSON schema of the counters: spdbench's
// BENCH_spdbench.json marshals it, and spdd's /v1/eval and /metrics embed
// its Resilience section. The sections embed with JSON names, so each
// marshals as a nested object while its fields stay promoted in Go.
type Stats struct {
	// Prepares counts distinct compile+transform pipeline runs.
	Prepares int64 `json:"prepares"`
	// Measures counts distinct timed measurement cells (one cell prices all
	// of its machine models at once). ReplayCells + InterpCells == Measures
	// once the runner is idle.
	Measures int64 `json:"measures"`
	// ProfileRuns counts the shared profiling interpretations run, at most
	// one per benchmark: every PERFECT and SPEC preparation reads its
	// benchmark's run, and the NAIVE/STATIC/PERFECT cells replay its trace.
	ProfileRuns int64 `json:"profile_runs"`
	// SimOps counts dynamic operations priced across all measurement cells,
	// each cell's from the trace it replayed — shared, or recorded by the
	// cell's own interpretation (TraceReplay off). Both settings report
	// identical totals, and a warm store run reports the cold run's.
	SimOps int64 `json:"sim_ops"`

	TraceStats `json:"trace"`
	ExecStats  `json:"exec"`
	// CacheStats is the scheduling section: the runner's shared schedule
	// cache counts the dependence graphs the cells' plans built (graphs),
	// the ones it list-scheduled (distinct) and the list-scheduler runs
	// they took (list_runs). Every cell builds its plans once, so the
	// three are equal at every Par, with or without TraceReplay.
	sched.CacheStats `json:"sched"`
	Resilience       `json:"resilience"`
	StoreServed      `json:"store"`
}

// TraceStats is the trace-sharing section of Stats.
type TraceStats struct {
	// Mode is "replay" when cells share traces (Runner.TraceReplay) and
	// "interp" when every cell interprets its own program.
	Mode string `json:"mode"`
	// TraceCaptures counts distinct execution traces materialized, whether
	// recorded by a shared profiling run, derived from its execution keys, or
	// captured by a dedicated recording interpretation; TraceDerived counts
	// the derived ones among them. TraceHits counts trace requests served
	// from the cache instead.
	TraceCaptures int64 `json:"captures"`
	TraceDerived  int64 `json:"derived"`
	TraceHits     int64 `json:"cache_hits"`
	// TraceEvents and TraceBytes total the recorded events and the encoded
	// histogram bytes of all captured traces.
	TraceEvents int64 `json:"events"`
	TraceBytes  int64 `json:"bytes"`
	// ReplayCells and InterpCells split Measures by trace source: a shared
	// trace, or the cell's own recorded interpretation.
	ReplayCells int64 `json:"replay_cells"`
	InterpCells int64 `json:"interp_cells"`
}

// ExecStats is the execution-engine section of Stats.
type ExecStats struct {
	// Mode is the configured backend (Runner.Exec): "native", "bcode" or
	// "tree".
	Mode string `json:"mode"`
	// BCodeCompiled counts decision trees compiled by either compiled tier
	// across every preparation, and BCodeInstrs their total size:
	// instruction words for bytecode, closure steps for native code. Under
	// the native backend with adaptive tiering a promoted tree is compiled
	// once per tier, so both tiers' compiles are counted. BCodeCacheHits
	// counts the tree executions' compiled-program lookups served from a
	// prepared program's shared caches.
	BCodeCompiled  int64 `json:"trees_compiled"`
	BCodeInstrs    int64 `json:"instrs"`
	BCodeCacheHits int64 `json:"cache_hits"`
	// NativeSteps and NativeFused describe the native tier's compiled
	// closure chains (native backend only): total chain steps after pair
	// fusion, and the superinstructions among them. TierUps counts trees
	// adaptive tiering promoted from the bytecode rung to the native tier
	// (Runner.TierUp).
	NativeSteps int64 `json:"steps"`
	NativeFused int64 `json:"fused"`
	TierUps     int64 `json:"tier_ups"`
}

// Resilience is the fault-tolerance section of Stats: failures,
// degradation rungs taken, and faults injected. All zero on a clean
// uninjected run; see docs/RESILIENCE.md.
type Resilience struct {
	// CellFailures counts distinct cells that failed after exhausting their
	// degradation ladder; CellPanics, FuelExhausted, and DeadlineExceeded
	// split those failures by class (the remainder is corrupt-trace,
	// missing-schedule, and unclassified failures).
	CellFailures     int64 `json:"cell_failures"`
	CellPanics       int64 `json:"cell_panics"`
	FuelExhausted    int64 `json:"fuel_exhausted"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// NCodeFallbacks counts native-engine cell failures retried on the
	// bytecode engine; BCodeFallbacks counts bytecode-engine cell failures
	// retried on the reference tree walker; TraceRecaptures counts corrupt
	// traces replaced by a fresh per-cell capture; InterpFallbacks counts
	// replay-backend cells that fell all the way back to interpreting
	// measurement. All four count rungs taken, whether or not the rung then
	// succeeded.
	NCodeFallbacks  int64 `json:"ncode_fallbacks"`
	BCodeFallbacks  int64 `json:"bcode_fallbacks"`
	TraceRecaptures int64 `json:"trace_recaptures"`
	InterpFallbacks int64 `json:"interp_fallbacks"`
	// FaultsInjected counts cells the runner's fault-injection plan armed.
	// Zero unless the runner was built with a non-empty Inject plan.
	FaultsInjected int64 `json:"faults_injected"`
}

// Add adds o's counters to s: a running total over several runners, such
// as spdd's over every request's private engine.
func (s *Resilience) Add(o Resilience) {
	s.CellFailures += o.CellFailures
	s.CellPanics += o.CellPanics
	s.FuelExhausted += o.FuelExhausted
	s.DeadlineExceeded += o.DeadlineExceeded
	s.NCodeFallbacks += o.NCodeFallbacks
	s.BCodeFallbacks += o.BCodeFallbacks
	s.TraceRecaptures += o.TraceRecaptures
	s.InterpFallbacks += o.InterpFallbacks
	s.FaultsInjected += o.FaultsInjected
}

// StoreServed is the store section of Stats: cells served whole from the
// persistent artifact store (Runner.Store) instead of being computed. The
// store's own counters are store.Stats (Runner.StoreStats).
type StoreServed struct {
	// StorePreps and StoreMeasures count prepare summaries and priced
	// measurement cells respectively. A fully warm run has Prepares ==
	// ProfileRuns == Measures == TraceCaptures == 0 with all the work
	// accounted here.
	StorePreps    int64 `json:"preps_served"`
	StoreMeasures int64 `json:"measures_served"`
}

// Stats returns a snapshot of the runner's work counters. Safe to call
// concurrently with running experiments.
func (r *Runner) Stats() Stats {
	// Load captures before requests: requests are incremented before their
	// capture runs, so this order keeps TraceHits non-negative even when
	// sampled mid-warm.
	captures := r.nTraceCaptures.Load()
	reqs := r.nTraceReqs.Load()
	traceMode := "interp"
	if r.TraceReplay {
		traceMode = "replay"
	}
	return Stats{
		Prepares:    r.nPrepares.Load(),
		Measures:    r.nMeasures.Load(),
		ProfileRuns: r.nProfileRuns.Load(),
		SimOps:      r.nSimOps.Load(),
		TraceStats: TraceStats{
			Mode:          traceMode,
			TraceCaptures: captures,
			TraceDerived:  r.nTraceDerived.Load(),
			TraceHits:     reqs - captures,
			TraceEvents:   r.nTraceEvents.Load(),
			TraceBytes:    r.nTraceBytes.Load(),
			ReplayCells:   r.nReplayCells.Load(),
			InterpCells:   r.nInterpCells.Load(),
		},
		ExecStats: ExecStats{
			Mode:           r.Exec.String(),
			BCodeCompiled:  r.bcodeCtrs.Compiled.Load(),
			BCodeInstrs:    r.bcodeCtrs.Instrs.Load(),
			BCodeCacheHits: r.bcodeCtrs.Hits.Load(),
			NativeSteps:    r.bcodeCtrs.Steps.Load(),
			NativeFused:    r.bcodeCtrs.Fused.Load(),
			TierUps:        r.bcodeCtrs.TierUps.Load(),
		},
		CacheStats: r.schedules().Stats(),
		Resilience: Resilience{
			CellFailures:     r.nCellFails.Load(),
			CellPanics:       r.nPanics.Load(),
			FuelExhausted:    r.nFuel.Load(),
			DeadlineExceeded: r.nDeadline.Load(),
			NCodeFallbacks:   r.nNCodeFallback.Load(),
			BCodeFallbacks:   r.nBCodeFallback.Load(),
			TraceRecaptures:  r.nRecapture.Load(),
			InterpFallbacks:  r.nInterpFallback.Load(),
			FaultsInjected:   r.nInjected.Load(),
		},
		StoreServed: StoreServed{
			StorePreps:    r.nStorePreps.Load(),
			StoreMeasures: r.nStoreMeasures.Load(),
		},
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

// cost estimates the cell's relative wall time for queue ordering. The
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

// warm runs the given cells on the worker pool and waits for all of them;
// see warmAsync.
func (r *Runner) warm(cells []warmCell) { r.warmAsync(cells)() }

// warmAsync starts warming the given cells on min(Par, len(cells)) workers
// and returns a wait function that blocks until every worker has exited.
// With an effective pool width of one it is a no-op (the caller's assembly
// loop does the work itself; warming would just push every cell through the
// cache path twice).
//
// Callers may begin consuming cells before wait returns: the singleflight
// layer under Prepared/Measure/Summary coalesces the consumer onto the
// warming computation, so rows stream out as their cells complete.
func (r *Runner) warmAsync(cells []warmCell) (wait func()) {
	workers := min(r.par(), len(cells))
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
	return startQueue(ctx, workers, costs, func(i int) { cells[i].run(r) })
}

// startQueue starts workers goroutines that run every task index in
// [0, len(costs)) at most once, highest estimated cost first, and returns a
// wait function that blocks until every worker has exited. The tasks are
// sorted once; each worker claims the next one from a single atomic cursor
// until the cursor runs off the end. Starting the biggest tasks first bounds
// the makespan, and a worker that finishes early simply claims the next
// task, so no load needs rebalancing.
//
// Cancellation: a worker checks ctx before every claim and exits once it is
// done, so a cancelled request's unstarted cells are skipped rather than run
// and discarded (the engines would fail them with typed deadline errors
// anyway, but only after burning a full interpretation each). In-flight
// tasks finish. See TestQueueCancelSkipsQueued.
func startQueue(ctx context.Context, workers int, costs []int64, run func(task int)) (wait func()) {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(order)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(len(order)) {
					return
				}
				run(order[i])
			}
		}()
	}
	return wg.Wait
}
