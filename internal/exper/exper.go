// Package exper regenerates every table and figure of the paper's evaluation
// (§6): Table 6-3 (SpD application frequency by dependence type), Figure 6-2
// (speedup of STATIC / SPEC / PERFECT over NAIVE on a 5-FU machine),
// Figure 6-3 (speedup of SPEC over STATIC as a function of machine width),
// and Figure 6-4 (code-size increase due to SpD).
//
// A Runner caches prepared programs and measurements so the experiments can
// share work: one timed simulation prices a program under the infinite
// machine and all eight widths at once, and — for the pipelines whose output
// does not depend on memory latency — under both memory latencies at once.
// Each experiment first fans its cells out over a bounded worker pool
// (Runner.Par); a singleflight layer deduplicates the cells the experiments
// have in common, so concurrent and repeated requests coalesce onto one
// computation. Results are byte-identical to a sequential run.
package exper

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"specdis/internal/bcode"
	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/disamb"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/ncode"
	"specdis/internal/resilience"
	"specdis/internal/sched"
	"specdis/internal/sim"
	"specdis/internal/spd"
	"specdis/internal/store"
	"specdis/internal/trace"
)

// MaxWidth is the widest machine evaluated (the paper sweeps 1–8 FUs).
const MaxWidth = 8

// MemLats are the two memory latencies of Table 6-1.
var MemLats = []int{2, 6}

// Runner executes and caches experiment building blocks.
type Runner struct {
	Params     spd.Params
	Benchmarks []*bench.Benchmark

	// Par bounds the worker pool experiments use to evaluate independent
	// (benchmark, pipeline, latency) cells concurrently: 0 means
	// GOMAXPROCS, 1 runs fully sequentially. Output is byte-identical at
	// every setting; see TestParallelDeterminism.
	Par int

	// TraceReplay makes measurement cells share traces (the default from
	// New; `spdbench -trace=interp` turns it off). Every cell is priced by
	// replaying a trace against its models' schedules. With TraceReplay,
	// NAIVE, STATIC and PERFECT replay their benchmark's shared profiling
	// run, and each SPEC program's trace is derived from that run
	// (disamb.Derive), captured by an interpretation only when the
	// derivation declines or on the recapture rung, so no cell interprets.
	// Without it, every cell interprets its own program and prices that
	// run's trace (disamb.MeasureWith): the setting checks the sharing
	// policy, not a second pricing algorithm. Reports are byte-identical
	// either way at every Par setting; see TestTraceReplayEquivalence.
	TraceReplay bool

	// Verify passes the static verifier down to every preparation
	// (disamb.Options.Verify): each pipeline stage of each cell is checked
	// for structural and speculation-safety violations, failing the cell on
	// the first finding. Debug mode (`spdbench -verify`).
	Verify bool

	// Exec selects the execution backend every interpretation uses. The
	// zero value is the bytecode engine; New selects the closure-threaded
	// native tier — the CLIs' default (`spdbench -exec=bcode` and
	// `-exec=tree` walk back down the ladder). Reports are byte-identical
	// under all three backends.
	Exec sim.ExecMode

	// TierUp is the adaptive-tiering hot threshold under the native backend
	// (sim.Runner.TierUp): every tree starts on the bytecode rung and is
	// promoted to the native tier at its TierUp-th execution of a run, so
	// cold trees never pay native compilation. 0 (and any value <= 0)
	// compiles eagerly. New sets DefaultTierUp.
	TierUp int64

	// Fuel bounds every interpretation's dynamic operation count (0 =
	// sim.DefaultMaxOps): a nonterminating cell fails with a typed
	// resilience.ErrFuelExhausted instead of hanging the grid.
	Fuel int64

	// Ctx, when non-nil, cancels in-flight cells on deadline expiry or
	// cancellation with typed resilience.ErrDeadline failures
	// (`spdbench -deadline`).
	Ctx context.Context

	// Inject is the seeded fault-injection plan (nil: no injection). Faults
	// are dealt per cell by canonical name; every failure they manufacture
	// must either be recovered by a degradation rung or surface as a
	// structured CellError in Failures — never kill the process.
	Inject *resilience.FaultPlan

	// Store, when non-nil, is the persistent content-addressed artifact
	// store (`spdbench -store=DIR`): prepare summaries and priced
	// measurement cells are served from it when present and persisted when
	// computed, so repeat sweeps start warm. Bypassed under Verify and
	// Inject; see store.go.
	Store *store.Store

	base   group[string, *ir.Program]
	runs   group[string, *disamb.Profiled]
	prep   group[prepKey, *prepCell]
	meas   group[prepKey, *measCell]
	traces group[prepKey, *trace.Trace]
	sums   group[prepKey, *store.PrepSummary]

	failMu sync.Mutex
	failed map[string]*resilience.CellError // first failure per cell name

	nPrepares       atomic.Int64
	nProfileRuns    atomic.Int64
	nMeasures       atomic.Int64
	nSimOps         atomic.Int64
	nTraceReqs      atomic.Int64
	nTraceCaptures  atomic.Int64
	nTraceDerived   atomic.Int64
	nTraceEvents    atomic.Int64
	nTraceBytes     atomic.Int64
	nReplayCells    atomic.Int64
	nInterpCells    atomic.Int64
	nCellFails      atomic.Int64
	nPanics         atomic.Int64
	nFuel           atomic.Int64
	nDeadline       atomic.Int64
	nBCodeFallback  atomic.Int64
	nNCodeFallback  atomic.Int64
	nRecapture      atomic.Int64
	nInterpFallback atomic.Int64
	nInjected       atomic.Int64
	nStorePreps     atomic.Int64
	nStoreMeasures  atomic.Int64
	bcodeCtrs       bcode.Counters

	// The compiled-code caches are shared across every cell of the sweep:
	// content addressing (ir.AppendExecKey) makes them safe across the
	// private program clones each pipeline mutates, so identical trees —
	// the common case, since most pipelines only touch arcs — compile once
	// per runner instead of once per cell.
	cacheOnce sync.Once
	bcCache   *bcode.Cache
	ncCache   *ncode.Cache

	// The schedule cache is shared the same way, by every preparation of
	// the runner: keyed by dependence-graph content, it schedules each
	// distinct graph once per runner instead of once per cell.
	schedOnce  sync.Once
	schedCache *sched.Cache
}

// schedules returns the runner's shared schedule cache, creating it on
// first use.
func (r *Runner) schedules() *sched.Cache {
	r.schedOnce.Do(func() { r.schedCache = sched.NewCache() })
	return r.schedCache
}

// caches returns the runner's shared compiled-code caches, creating them on
// first use wired to the runner's counters.
func (r *Runner) caches() (*bcode.Cache, *ncode.Cache) {
	r.cacheOnce.Do(func() {
		r.bcCache = bcode.NewCache(&r.bcodeCtrs)
		r.ncCache = ncode.NewCache(&r.bcodeCtrs)
	})
	return r.bcCache, r.ncCache
}

// UseCaches makes the runner share pre-built compiled-code caches instead of
// creating private ones — the service configuration, where one bounded
// bcode/ncode cache pair (with its own server-level counters) serves every
// request's runner. Must be called before the runner executes any cell; it
// is a no-op if the private caches already exist. The caches' own counters
// keep compile/hit/eviction totals at the server level, while the runner's
// per-request Stats counters stay isolated.
func (r *Runner) UseCaches(bc *bcode.Cache, nc *ncode.Cache) {
	r.cacheOnce.Do(func() {
		r.bcCache = bc
		r.ncCache = nc
	})
}

type prepKey struct {
	bench  string
	kind   disamb.Kind
	memLat int // 0 = canonical cell shared by all latencies
}

// measCell is one timed run's result: a Measurement per priced memory
// latency (parallel to the lats the run was keyed under).
type measCell struct {
	byLat []*Measurement
}

// Measurement is one program's cycle counts: Inf for the infinite machine
// and ByWidth[w-1] for w functional units.
type Measurement struct {
	Inf     int64
	ByWidth [MaxWidth]int64
	// Ops is the number of dynamic operations the timed simulation
	// executed (including squashed speculative ones).
	Ops int64
}

// DefaultTierUp is New's adaptive-tiering threshold: a tree's 32nd execution
// within a run promotes it from the bytecode rung to the native tier. Low
// enough that every hot loop tree promotes almost immediately, high enough
// that straight-line setup trees executed a handful of times never pay
// native compilation. See BenchmarkTierUpThreshold for the sweep behind it.
const DefaultTierUp = 32

// New returns a Runner over the full suite with default SpD parameters, the
// parallel cell engine enabled (Par = GOMAXPROCS), the trace-replay
// simulation backend, and the native execution tier under profile-guided
// adaptive tiering (TierUp = DefaultTierUp).
func New() *Runner {
	return &Runner{
		Params:      spd.DefaultParams(),
		Benchmarks:  bench.All(),
		TraceReplay: true,
		Exec:        sim.ExecNative,
		TierUp:      DefaultTierUp,
	}
}

// latSlot returns memLat's index in MemLats.
func latSlot(memLat int) (int, bool) {
	for i, l := range MemLats {
		if l == memLat {
			return i, true
		}
	}
	return 0, false
}

// prepCell is one cached preparation: its summary for good, and the
// prepared program until the measurement cell that reads it is done (see
// Prepared).
type prepCell struct {
	sum *store.PrepSummary

	mu     sync.Mutex
	p      *disamb.Prepared // nil once released
	pinned bool             // asked for through Prepared: never released
}

// Prepared returns (building and caching) the program for one pipeline.
//
// Pipelines that are not latency-sensitive share a single canonical cell
// across all memory latencies: their transforms never read the latency, and
// profiling results are latency-invariant (the simulator executes in Seq
// order under every semantic model), so preparing per latency would only
// duplicate work. PERFECT and both SPEC cells read one shared profiling run
// of the benchmark (profiled) instead of interpreting it themselves.
//
// A measurement cell releases the program it measured once it is done,
// since nothing in the evaluation grid reads it again (summaries are kept
// apart), so a runner does not hold every prepared program to the end. A
// program asked for here is never released; asking for one that was
// prepares it again.
func (r *Runner) Prepared(b *bench.Benchmark, kind disamb.Kind, memLat int) (*disamb.Prepared, error) {
	return r.prepared(b, kind, memLat, true)
}

// prepKeyOf returns the cache key of a pipeline's preparation at memLat,
// and the latency it is prepared for.
func prepKeyOf(b *bench.Benchmark, kind disamb.Kind, memLat int) (prepKey, int) {
	if !kind.LatencySensitive() {
		return prepKey{b.Name, kind, 0}, MemLats[0]
	}
	return prepKey{b.Name, kind, memLat}, memLat
}

// prepCell returns (building and caching) one preparation cell.
func (r *Runner) prepCell(b *bench.Benchmark, kind disamb.Kind, memLat int) (*prepCell, error) {
	key, memLat := prepKeyOf(b, kind, memLat)
	return r.prep.Do(key, func() (*prepCell, error) {
		p, err := r.prepare(b, kind, key.memLat, memLat)
		if err != nil {
			return nil, err
		}
		sum := &store.PrepSummary{BaseOps: p.BaseOps, AfterOps: p.Prog.OpCount(), Grafts: p.Grafts}
		if p.SpD != nil {
			sum.RAW, sum.WAR, sum.WAW = p.SpD.RAW, p.SpD.WAR, p.SpD.WAW
		}
		return &prepCell{sum: sum, p: p}, nil
	})
}

// prepared returns a preparation cell's program, pinning it when pin is
// set, and preparing it again if a measurement released it.
func (r *Runner) prepared(b *bench.Benchmark, kind disamb.Kind, memLat int, pin bool) (*disamb.Prepared, error) {
	c, err := r.prepCell(b, kind, memLat)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pinned = c.pinned || pin
	if c.p == nil {
		key, memLat := prepKeyOf(b, kind, memLat)
		if c.p, err = r.prepare(b, kind, key.memLat, memLat); err != nil {
			return nil, err
		}
	}
	return c.p, nil
}

// release drops a preparation cell's program unless it is pinned.
func (r *Runner) release(b *bench.Benchmark, kind disamb.Kind, memLat int) {
	c, err := r.prepCell(b, kind, memLat) // cached: the caller measured it
	if err != nil {
		return
	}
	c.mu.Lock()
	if !c.pinned {
		c.p = nil
	}
	c.mu.Unlock()
}

// prepare runs one preparation: a private clone of the benchmark's
// compiled base through the pipeline. It interprets nothing (NAIVE and
// STATIC never profile, PERFECT and SPEC read the shared run), so it walks
// no execution-backend ladder: a failure here is the pipeline's, and
// would fail the same way on every backend. cellLat is the cell's
// canonical latency, memLat the one it targets.
func (r *Runner) prepare(b *bench.Benchmark, kind disamb.Kind, cellLat, memLat int) (*disamb.Prepared, error) {
	base, err := r.compiled(b)
	if err != nil {
		return nil, err
	}
	r.nPrepares.Add(1)
	var run *disamb.Profiled
	if kind.ReadsProfile() {
		if run, err = r.profiled(b); err != nil {
			return nil, r.failCell(inherit(err, b.Name, kind, cellLat), b.Name, kind, cellLat, "prepare")
		}
	}
	p, err := func() (p *disamb.Prepared, err error) {
		// The preparation is a cell boundary: a panic anywhere in the
		// pipeline is recovered into a structured CellError instead of
		// killing the grid.
		defer resilience.Recover(&err, b.Name, kind.String(), cellLat, "prepare")
		o := r.options(kind, memLat, r.Exec)
		// All of a benchmark's cells start from private clones of one
		// compilation; each pipeline mutates only its own clone.
		o.Prog = base.Clone()
		return disamb.PrepareFrom(run, o)
	}()
	if err != nil {
		return nil, r.failCell(err, b.Name, kind, cellLat, "prepare")
	}
	return p, nil
}

// profiled returns (running and caching) a benchmark's shared profiling run:
// one recorded interpretation of a clone of its compiled base, whose profile
// and output PERFECT and both SPEC preparations read and whose trace the
// NAIVE, STATIC and PERFECT cells replay (traceFor). It is a cell boundary
// like a preparation: panics are recovered here, since a panic escaping
// group.Do would leave every waiter blocked, and a compiled-engine failure
// walks the native → bytecode → tree ladder. The run is not a grid cell, so
// it registers no failure itself: each cell that needed it fails under its
// own name (inherit).
func (r *Runner) profiled(b *bench.Benchmark) (*disamb.Profiled, error) {
	return r.runs.Do(b.Name, func() (*disamb.Profiled, error) {
		base, err := r.compiled(b)
		if err != nil {
			return nil, err
		}
		r.nProfileRuns.Add(1)
		return onLadder(r, r.Exec, func(mode sim.ExecMode) (run *disamb.Profiled, err error) {
			defer resilience.Recover(&err, b.Name, "profile", 0, "profile")
			return disamb.ProfileRun(base, r.options(disamb.Naive, MemLats[0], mode))
		})
	})
}

// options returns the settings every preparation and interpretation of the
// runner shares: its SpD parameters, verifier, fuel and context, the given
// backend under its tier-up threshold, its compiled-code caches and
// counters, and its schedule cache.
func (r *Runner) options(kind disamb.Kind, memLat int, mode sim.ExecMode) disamb.Options {
	bcc, ncc := r.caches()
	return disamb.Options{
		Kind: kind, MemLat: memLat, SpD: r.Params,
		Verify: r.Verify,
		MaxOps: r.Fuel, Ctx: r.Ctx,
		Exec: mode, TierUp: r.TierUp, ExecCounters: &r.bcodeCtrs,
		BCode: bcc, NCode: ncc, Sched: r.schedules(),
	}
}

// compiled returns (compiling and caching) a benchmark's base program. Every
// preparation cell of the benchmark starts from a private Clone of it, so the
// source is lexed and lowered once per benchmark instead of once per cell.
func (r *Runner) compiled(b *bench.Benchmark) (*ir.Program, error) {
	return r.base.Do(b.Name, func() (*ir.Program, error) {
		p, err := compile.CompileOpts(b.Source, compile.Options{Verify: r.Verify})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		return p, nil
	})
}

// traceFor returns (deriving or capturing, and caching) the execution trace
// replayed for one measurement cell.
//
// Traces depend only on what a cell's program *executes*, never on arcs or
// schedules, so all latency-insensitive pipelines of a benchmark share one
// trace: NAIVE, STATIC and PERFECT run the identical operation stream (their
// disambiguators touch arcs only). That class is keyed under PERFECT and is
// the trace the benchmark's shared profiling run recorded, so it costs no
// interpretation of its own; a failed run fails it as PERFECT's
// preparation, which reads the same run. SPEC's transformed programs get
// their own per-latency traces, derived from the same run's execution keys
// (disamb.Derive) or, whenever the derivation declines, captured by one
// interpretation each (disamb.Capture), which fails exactly as it always
// did.
func (r *Runner) traceFor(b *bench.Benchmark, kind disamb.Kind, memLat int) (*trace.Trace, error) {
	key := prepKey{b.Name, kind, memLat}
	if !kind.LatencySensitive() {
		key.kind, key.memLat = disamb.Perfect, 0
	}
	r.nTraceReqs.Add(1)
	return r.traces.Do(key, func() (*trace.Trace, error) {
		var tr *trace.Trace
		if kind.LatencySensitive() {
			p, err := r.prepared(b, kind, memLat, false)
			if err != nil {
				return nil, err
			}
			run, err := r.profiled(b) // cached: the preparation read it
			if err != nil {
				return nil, err
			}
			r.nTraceCaptures.Add(1)
			tr, err = func() (tr *trace.Trace, err error) {
				// Deriving or capturing is a cell boundary too: contain
				// crashes.
				defer resilience.Recover(&err, b.Name, kind.String(), memLat, "capture")
				if tr, err := disamb.Derive(p, run); err == nil {
					r.nTraceDerived.Add(1)
					return tr, nil
				}
				return disamb.Capture(p)
			}()
			if err != nil {
				return nil, r.failCell(err, b.Name, kind, memLat, "capture")
			}
		} else {
			run, err := r.profiled(b)
			if err != nil {
				return nil, r.failCell(inherit(err, b.Name, disamb.Perfect, 0), b.Name, disamb.Perfect, 0, "prepare")
			}
			r.nTraceCaptures.Add(1)
			tr = run.Trace
		}
		r.nTraceEvents.Add(tr.Events)
		r.nTraceBytes.Add(int64(tr.Size()))
		return tr, nil
	})
}

// Measure returns (running and caching) the cycle counts for one pipeline
// under the infinite machine and every width at the given memory latency.
//
// For latency-insensitive pipelines the two standard latencies are priced by
// one merged 18-model run over the shared prepared program (timing plans are
// pure pricing — the executed operations are identical), halving the number
// of simulations.
func (r *Runner) Measure(b *bench.Benchmark, kind disamb.Kind, memLat int) (*Measurement, error) {
	key := prepKey{b.Name, kind, memLat}
	lats := []int{memLat}
	slot := 0
	if !kind.LatencySensitive() {
		if s, ok := latSlot(memLat); ok {
			key.memLat = 0
			lats = MemLats
			slot = s
		}
	}
	cell, err := r.meas.Do(key, func() (*measCell, error) {
		var skey store.Key
		if r.storeOK() {
			skey = r.artifactKey(store.KindMeas, b, kind, key.memLat, lats)
			if mc, ok := store.GetMeas(r.Store, skey); ok {
				if cell := cellFromArtifact(mc, lats); cell != nil {
					// Warm hit: the stored cycle counts stand in for the whole
					// timed simulation. Ops still feeds SimOps so the pinned
					// sim_ops total is identical cold and warm.
					r.nStoreMeasures.Add(1)
					r.nSimOps.Add(mc.Ops)
					return cell, nil
				}
			}
		}
		p, err := r.prepared(b, kind, memLat, false)
		if err != nil {
			return nil, err // registered by Prepared at its origin
		}
		if key.memLat == 0 || kind.LatencySensitive() {
			// This is the grid's only reader of the program (see Prepared).
			defer r.release(b, kind, memLat)
		}
		models := make([]machine.Model, 0, len(lats)*(MaxWidth+1))
		for _, lat := range lats {
			models = append(models, machine.Infinite(lat))
			for w := 1; w <= MaxWidth; w++ {
				models = append(models, machine.New(w, lat))
			}
		}
		r.nMeasures.Add(1)
		res, err := r.measureCell(b, kind, key.memLat, memLat, p, models)
		if err != nil {
			return nil, r.failCell(err, b.Name, kind, key.memLat, "measure")
		}
		r.nSimOps.Add(res.Ops)
		cell := &measCell{byLat: make([]*Measurement, len(lats))}
		for li := range lats {
			m := &Measurement{Inf: res.Times[li*(MaxWidth+1)], Ops: res.Ops}
			copy(m.ByWidth[:], res.Times[li*(MaxWidth+1)+1:(li+1)*(MaxWidth+1)])
			cell.byLat[li] = m
		}
		if r.storeOK() {
			store.PutMeas(r.Store, skey, cellToArtifact(cell, lats))
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	return cell.byLat[slot], nil
}

// PrepareAll warms every (benchmark, pipeline, memory latency) prepare cell
// of the evaluation grid through the worker pool and returns the first error
// in grid order.
func (r *Runner) PrepareAll() error {
	var cells []warmCell
	for _, b := range r.Benchmarks {
		for _, k := range disamb.Kinds {
			for _, memLat := range MemLats {
				cells = append(cells, warmCell{bench: b, kind: k, memLat: memLat})
			}
		}
	}
	r.warm(cells)
	for _, c := range cells {
		if _, err := r.Prepared(c.bench, c.kind, c.memLat); err != nil {
			return err
		}
	}
	return nil
}

// speedup returns base/x − 1 (the paper's bar heights).
func speedup(base, x int64) float64 {
	if x == 0 {
		return 0
	}
	return float64(base)/float64(x) - 1
}

// ---- Table 6-3 ----------------------------------------------------------

// Table63Row is one benchmark's SpD application counts by dependence type
// for the two memory-latency models.
type Table63Row struct {
	Program          string
	RAW2, WAR2, WAW2 int
	RAW6, WAR6, WAW6 int
	// Fail is the failure class of the row's first failed cell ("" = clean).
	// Failed rows carry zero counts and are excluded from the TOTAL row.
	Fail string
}

// Table63 reproduces Table 6-3.
func (r *Runner) Table63() ([]Table63Row, error) {
	var rows []Table63Row
	err := r.streamTable63(func(row Table63Row) { rows = append(rows, row) })
	return rows, err
}

// streamTable63 computes Table 6-3 row by row, emitting each row as soon as
// its cells resolve. The cells warm asynchronously on the cost-ordered
// worker queue (warmAsync); the assembly loop coalesces onto in-flight
// computations through the singleflight layer, so emission order — and
// therefore rendered output — is identical to a sequential run.
//
// Row data comes from prepare summaries (Runner.Summary), not full
// preparations: on a warm store the table renders without compiling
// anything.
func (r *Runner) streamTable63(emit func(Table63Row)) error {
	var cells []warmCell
	for _, b := range r.Benchmarks {
		for _, memLat := range MemLats {
			cells = append(cells, warmCell{bench: b, kind: disamb.Spec, memLat: memLat, task: taskSummary})
		}
	}
	wait := r.warmAsync(cells)
	defer wait()

	var total Table63Row
	total.Program = "TOTAL"
	for _, b := range r.Benchmarks {
		row := Table63Row{Program: b.Name}
		for _, memLat := range MemLats {
			s, err := r.Summary(b, disamb.Spec, memLat)
			if err != nil {
				// Record the failure on the row and keep going: one broken
				// cell must not take down the rest of the table.
				if row.Fail == "" {
					row.Fail = failNote(err)
				}
				continue
			}
			if memLat == 2 {
				row.RAW2, row.WAR2, row.WAW2 = s.RAW, s.WAR, s.WAW
			} else {
				row.RAW6, row.WAR6, row.WAW6 = s.RAW, s.WAR, s.WAW
			}
		}
		if row.Fail != "" {
			row.RAW2, row.WAR2, row.WAW2 = 0, 0, 0
			row.RAW6, row.WAR6, row.WAW6 = 0, 0, 0
			emit(row)
			continue
		}
		total.RAW2 += row.RAW2
		total.WAR2 += row.WAR2
		total.WAW2 += row.WAW2
		total.RAW6 += row.RAW6
		total.WAR6 += row.WAR6
		total.WAW6 += row.WAW6
		emit(row)
	}
	emit(total)
	return nil
}

// ---- Figure 6-2 ----------------------------------------------------------

// Fig62Row is one benchmark's speedups over NAIVE on the 5-FU machine.
type Fig62Row struct {
	Program string
	MemLat  int
	Static  float64
	Spec    float64
	Perfect float64
	// Fail is the failure class of the row's first failed cell ("" = clean);
	// a failed row's speedups are zero.
	Fail string
}

// Fig62Width is the machine width used by Figure 6-2.
const Fig62Width = 5

// Figure62 reproduces Figure 6-2 for both memory latencies.
func (r *Runner) Figure62() ([]Fig62Row, error) {
	var rows []Fig62Row
	err := r.streamFigure62(func(row Fig62Row) { rows = append(rows, row) })
	return rows, err
}

// streamFigure62 computes Figure 6-2 row by row; see streamTable63 for the
// streaming contract.
func (r *Runner) streamFigure62(emit func(Fig62Row)) error {
	var cells []warmCell
	for _, b := range r.Benchmarks {
		for _, kind := range disamb.Kinds {
			for _, memLat := range MemLats {
				cells = append(cells, warmCell{bench: b, kind: kind, memLat: memLat, task: taskMeasure})
			}
		}
	}
	wait := r.warmAsync(cells)
	defer wait()

	for _, memLat := range MemLats {
		for _, b := range r.Benchmarks {
			row := Fig62Row{Program: b.Name, MemLat: memLat}
			naive, err := r.Measure(b, disamb.Naive, memLat)
			if err != nil {
				// The NAIVE baseline is gone: the whole row fails, but the
				// rest of the figure survives.
				row.Fail = failNote(err)
				emit(row)
				continue
			}
			base := naive.ByWidth[Fig62Width-1]
			for _, kp := range []struct {
				kind disamb.Kind
				out  *float64
			}{
				{disamb.Static, &row.Static},
				{disamb.Spec, &row.Spec},
				{disamb.Perfect, &row.Perfect},
			} {
				m, err := r.Measure(b, kp.kind, memLat)
				if err != nil {
					if row.Fail == "" {
						row.Fail = failNote(err)
					}
					continue
				}
				*kp.out = speedup(base, m.ByWidth[Fig62Width-1])
			}
			if row.Fail != "" {
				row.Static, row.Spec, row.Perfect = 0, 0, 0
			}
			emit(row)
		}
	}
	return nil
}

// ---- Figure 6-3 ----------------------------------------------------------

// Fig63Row is one NRC benchmark's SPEC-over-STATIC speedup per machine
// width, at one memory latency.
type Fig63Row struct {
	Program string
	MemLat  int
	Speedup [MaxWidth]float64 // index w-1 = width w
	// Fail is the failure class of the row's first failed cell ("" = clean);
	// a failed row's speedups are zero.
	Fail string
}

// Figure63 reproduces Figure 6-3 (NRC benchmarks only, per the paper).
func (r *Runner) Figure63() ([]Fig63Row, error) {
	var rows []Fig63Row
	err := r.streamFigure63(func(row Fig63Row) { rows = append(rows, row) })
	return rows, err
}

// streamFigure63 computes Figure 6-3 row by row; see streamTable63 for the
// streaming contract.
func (r *Runner) streamFigure63(emit func(Fig63Row)) error {
	var cells []warmCell
	for _, b := range bench.NRC() {
		for _, kind := range []disamb.Kind{disamb.Static, disamb.Spec} {
			for _, memLat := range MemLats {
				cells = append(cells, warmCell{bench: b, kind: kind, memLat: memLat, task: taskMeasure})
			}
		}
	}
	wait := r.warmAsync(cells)
	defer wait()

	for _, memLat := range MemLats {
		for _, b := range bench.NRC() {
			row := Fig63Row{Program: b.Name, MemLat: memLat}
			st, err := r.Measure(b, disamb.Static, memLat)
			if err == nil {
				var sp *Measurement
				sp, err = r.Measure(b, disamb.Spec, memLat)
				if err == nil {
					for w := 0; w < MaxWidth; w++ {
						row.Speedup[w] = speedup(st.ByWidth[w], sp.ByWidth[w])
					}
				}
			}
			if err != nil {
				row.Fail = failNote(err)
				row.Speedup = [MaxWidth]float64{}
			}
			emit(row)
		}
	}
	return nil
}

// ---- Figure 6-4 ----------------------------------------------------------

// Fig64Row is one benchmark's code-size increase due to SpD, measured in
// operations (not VLIW instructions), for the 2-cycle memory model.
type Fig64Row struct {
	Program     string
	BeforeOps   int
	AfterOps    int
	IncreasePct float64
	// Fail is the failure class of the row's failed prepare cell ("" =
	// clean); a failed row's counts are zero.
	Fail string
}

// Figure64 reproduces Figure 6-4.
func (r *Runner) Figure64() ([]Fig64Row, error) {
	var rows []Fig64Row
	err := r.streamFigure64(func(row Fig64Row) { rows = append(rows, row) })
	return rows, err
}

// streamFigure64 computes Figure 6-4 row by row; see streamTable63 for the
// streaming contract. Like Table 6-3, rows come from prepare summaries, so a
// warm store renders the figure without compiling anything.
func (r *Runner) streamFigure64(emit func(Fig64Row)) error {
	var cells []warmCell
	for _, b := range r.Benchmarks {
		cells = append(cells, warmCell{bench: b, kind: disamb.Spec, memLat: 2, task: taskSummary})
	}
	wait := r.warmAsync(cells)
	defer wait()

	for _, b := range r.Benchmarks {
		s, err := r.Summary(b, disamb.Spec, 2)
		if err != nil {
			emit(Fig64Row{Program: b.Name, Fail: failNote(err)})
			continue
		}
		row := Fig64Row{
			Program:   b.Name,
			BeforeOps: s.BaseOps,
			AfterOps:  s.AfterOps,
		}
		if s.BaseOps > 0 {
			row.IncreasePct = 100 * float64(s.AfterOps-s.BaseOps) / float64(s.BaseOps)
		}
		emit(row)
	}
	return nil
}
