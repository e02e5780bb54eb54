package main

// The traced pass. It re-drives evaluation cells itself, from outside the
// program, through the layers' public functions — lang.Parse/Check,
// compile.Lower, sim.Runner.Run (profiling, capture), alias.ResolveProgram,
// spd.Transform, PERFECT's arc filter, ir.BuildDepGraph, sched.FromGraph,
// Recorder.Finish, Trace.Hist and sim.Replayer.Replay — and records a span
// around every call. It keeps exper's sharing: one compile per program with
// private clones per pipeline, PERFECT's profiling run doubling as the
// capture of the latency-insensitive trace class, and one merged 18-model
// replay per latency-insensitive cell. Its work counters therefore match the
// untraced evaluation's, which checkParity enforces.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"specdis/internal/alias"
	"specdis/internal/bcode"
	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/ir"
	"specdis/internal/lang"
	"specdis/internal/machine"
	"specdis/internal/ncode"
	"specdis/internal/sched"
	"specdis/internal/serve"
	"specdis/internal/sim"
	"specdis/internal/spd"
	"specdis/internal/trace"
)

// span is one timed call. IDs and parents are indices into the recording
// worker's log; times are nanoseconds since the log's epoch.
type span struct {
	Name   string `json:"name"`
	Cell   string `json:"cell"`
	Op     int64  `json:"op"`
	Worker int    `json:"worker"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog is one worker goroutine's spans, kept in memory until the run
// writes them out.
type spanLog struct {
	epoch  time.Time
	worker int
	spans  []span
	open   []int // stack of unfinished span IDs
}

func (l *spanLog) begin(name, cell string, op int64) {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Cell: cell, Op: op, Worker: l.worker, ID: id, Parent: parent, Start: time.Since(l.epoch).Nanoseconds()})
	l.open = append(l.open, id)
}

func (l *spanLog) end() {
	id := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	l.spans[id].End = time.Since(l.epoch).Nanoseconds()
}

// selfTimes adds each span's self time — its duration minus the time its
// child spans cover — to self, by span name.
func (l *spanLog) selfTimes(self map[string]int64) {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range l.spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
}

// layerCounters are the traced pass's deterministic work counters.
type layerCounters struct {
	langBytes, compileTrees, compileOps, compileArcs atomic.Int64
	aliasTested, aliasRemoved                        atomic.Int64
	spdApps, spdAdded                                atomic.Int64
	profileOps, captureOps, pricedOps                atomic.Int64
	traceReqs, events, traceBytes, histEntries       atomic.Int64
	graphs, schedules, opsScheduled                  atomic.Int64
	prepares, measures, captures                     atomic.Int64
}

// redrive is the traced pass's state across operations.
type redrive struct {
	exec   sim.ExecMode
	tierUp int64
	fuel   int64
	params spd.Params

	// ctrs accumulates compiled-code cache counters across every cache the
	// pass creates; bc and nc are the long-lived cache pair request uses
	// (the server's shared caches), while grid creates a fresh pair per
	// evaluation (a fresh Runner's).
	ctrs *bcode.Counters
	bc   *bcode.Cache
	nc   *ncode.Cache

	total layerCounters
	ops   atomic.Int64

	mu    sync.Mutex
	epoch time.Time
	logs  []*spanLog // indexed by worker
}

// newRedrive returns a traced pass configured like exper.New with
// spdbench's fuel (eval) or like spdd's request runners (serve, non-nil
// cfg): the native tier under adaptive tiering and the replay backend.
func newRedrive(cfg *serve.Config) *redrive {
	d := &redrive{
		exec:   sim.ExecNative,
		tierUp: exper.DefaultTierUp,
		fuel:   spdbenchFuel,
		params: spd.DefaultParams(),
		ctrs:   &bcode.Counters{},
		epoch:  time.Now(),
	}
	d.bc = bcode.NewCache(d.ctrs)
	d.nc = ncode.NewCache(d.ctrs)
	if cfg != nil {
		d.fuel = serve.DefaultFuelCap
		d.bc.SetLimit(serve.DefaultCacheLimit)
		d.nc.SetLimit(serve.DefaultCacheLimit)
	}
	return d
}

// log returns worker w's span log.
func (d *redrive) log(w int) *spanLog {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.logs) <= w {
		d.logs = append(d.logs, &spanLog{epoch: d.epoch, worker: len(d.logs)})
	}
	return d.logs[w]
}

// reset drops every span and counter recorded so far, keeping the caches.
func (d *redrive) reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.logs = nil
	d.total = layerCounters{}
	d.ops.Store(0)
	ctrs := d.ctrs
	ctrs.Compiled.Store(0)
	ctrs.Instrs.Store(0)
	ctrs.Hits.Store(0)
	ctrs.TierUps.Store(0)
	ctrs.Evictions.Store(0)
}

func (d *redrive) spanCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, l := range d.logs {
		n += len(l.spans)
	}
	return n
}

// writeSpans writes every recorded span as one JSON object per line.
func (d *redrive) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	d.mu.Lock()
	for _, l := range d.logs {
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				d.mu.Unlock()
				f.Close()
				return err
			}
		}
	}
	d.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanLayers maps each metric of a layer's self time to the spans that
// make it up.
var spanLayers = map[string][]string{
	"lang.ms":         {"lang.parse", "lang.check"},
	"compile.ms":      {"compile.lower"},
	"alias.ms":        {"alias.resolve"},
	"spd.ms":          {"spd.transform"},
	"sim.profile_ms":  {"sim.profile"},
	"sim.capture_ms":  {"sim.capture"},
	"sim.replay_ms":   {"sim.replay"},
	"trace.finish_ms": {"trace.finish"},
	"trace.hist_ms":   {"trace.hist"},
	"ir.depgraph_ms":  {"ir.depgraph"},
	"sched.ms":        {"sched.schedule"},
}

// layerMetrics returns the per-layer metrics per traced operation.
func (d *redrive) layerMetrics(ops int64) map[string]float64 {
	m := map[string]float64{}
	if ops == 0 {
		return m
	}
	n := float64(ops)
	self := map[string]int64{}
	d.mu.Lock()
	spans := 0
	for _, l := range d.logs {
		l.selfTimes(self)
		spans += len(l.spans)
	}
	d.mu.Unlock()
	for metric, names := range spanLayers {
		var ns int64
		for _, name := range names {
			ns += self[name]
		}
		m[metric] = float64(ns) / 1e6 / n
	}
	c := &d.total
	per := func(v *atomic.Int64) float64 { return float64(v.Load()) / n }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["tracing.spans_per_op"] = float64(spans) / n
	m["lang.bytes"] = per(&c.langBytes)
	m["compile.trees"] = per(&c.compileTrees)
	m["compile.ops"] = per(&c.compileOps)
	m["compile.arcs"] = per(&c.compileArcs)
	m["alias.arcs_tested"] = per(&c.aliasTested)
	m["alias.removed_ratio"] = ratio(c.aliasRemoved.Load(), c.aliasTested.Load())
	m["spd.apps"] = per(&c.spdApps)
	m["spd.added_ops"] = per(&c.spdAdded)
	m["sim.profile_ops"] = per(&c.profileOps)
	m["sim.capture_ops"] = per(&c.captureOps)
	m["sim.priced_ops"] = per(&c.pricedOps)
	m["trace.events"] = per(&c.events)
	m["trace.bytes"] = per(&c.traceBytes)
	m["trace.hist_entries"] = per(&c.histEntries)
	m["trace.share_ratio"] = ratio(c.traceReqs.Load()-c.captures.Load(), c.traceReqs.Load())
	m["ir.graphs"] = per(&c.graphs)
	m["sched.schedules"] = per(&c.schedules)
	m["sched.ops_scheduled"] = per(&c.opsScheduled)
	m["exper.prepares"] = per(&c.prepares)
	m["exper.measures"] = per(&c.measures)
	m["exper.captures"] = per(&c.captures)
	m["exec.trees_compiled"] = per(&d.ctrs.Compiled)
	m["exec.cache_hit_ratio"] = ratio(d.ctrs.Hits.Load(), d.ctrs.Hits.Load()+d.ctrs.Compiled.Load())
	m["exec.tier_ups"] = per(&d.ctrs.TierUps)
	return m
}

// gridResult is one traced evaluation's cells and parity counters.
type gridResult struct {
	cells                                   map[string]*exper.Measurement
	prepares, measures, captures, pricedOps int64
}

// grid re-drives the whole evaluation grid — every pipeline at both
// latencies for each benchmark — the way one fresh exper.Runner computes
// it: one program per worker at a time on GOMAXPROCS workers, longest
// source first, over a fresh compiled-code cache pair.
func (d *redrive) grid(benches []*bench.Benchmark) (*gridResult, error) {
	op := d.ops.Add(1)
	c := &layerCounters{}
	bc, nc := bcode.NewCache(d.ctrs), ncode.NewCache(d.ctrs)
	order := append([]*bench.Benchmark(nil), benches...)
	sort.SliceStable(order, func(i, j int) bool { return len(order[i].Source) > len(order[j].Source) })
	workers := runtime.GOMAXPROCS(0)
	if workers > len(order) {
		workers = len(order)
	}
	cells := make([]map[string]*exper.Measurement, len(order))
	errs := make([]error, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			log := d.log(w)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				u := d.newUnit(c, log, op, order[i], order[i].Source, bc, nc)
				cells[i], errs[i] = u.allCells()
			}
		}(w)
	}
	wg.Wait()
	d.total.add(c)
	res := &gridResult{
		cells:     map[string]*exper.Measurement{},
		prepares:  c.prepares.Load(),
		measures:  c.measures.Load(),
		captures:  c.captures.Load(),
		pricedOps: c.pricedOps.Load(),
	}
	for i := range order {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for k, m := range cells[i] {
			res.cells[k] = m
		}
	}
	return res, nil
}

// request re-drives one /v1/eval cell the way spdd's private per-request
// Runner computes it: a fresh compile and fresh preparations, over the
// long-lived shared compiled-code caches. It returns the cell's cycles.
func (d *redrive) request(worker int, b *bench.Benchmark, src string, kind disamb.Kind, memLat int) (*exper.Measurement, error) {
	op := d.ops.Add(1)
	u := d.newUnit(&d.total, d.log(worker), op, b, src, d.bc, d.nc)
	return u.measure(kind, memLat)
}

func (c *layerCounters) add(o *layerCounters) {
	pairs := [][2]*atomic.Int64{
		{&c.langBytes, &o.langBytes}, {&c.compileTrees, &o.compileTrees}, {&c.compileOps, &o.compileOps}, {&c.compileArcs, &o.compileArcs},
		{&c.aliasTested, &o.aliasTested}, {&c.aliasRemoved, &o.aliasRemoved}, {&c.spdApps, &o.spdApps}, {&c.spdAdded, &o.spdAdded},
		{&c.profileOps, &o.profileOps}, {&c.captureOps, &o.captureOps}, {&c.pricedOps, &o.pricedOps},
		{&c.traceReqs, &o.traceReqs}, {&c.events, &o.events}, {&c.traceBytes, &o.traceBytes}, {&c.histEntries, &o.histEntries},
		{&c.graphs, &o.graphs}, {&c.schedules, &o.schedules}, {&c.opsScheduled, &o.opsScheduled},
		{&c.prepares, &o.prepares}, {&c.measures, &o.measures}, {&c.captures, &o.captures},
	}
	for _, p := range pairs {
		p[0].Add(p[1].Load())
	}
}

// cellID is a memo key within one unit: a pipeline at its canonical
// latency (0 for the latency-insensitive pipelines' shared cell).
type cellID struct {
	kind   disamb.Kind
	memLat int
}

// prepared is one pipeline's program, ready to capture and price.
type prepared struct {
	kind   disamb.Kind
	memLat int
	prog   *ir.Program
	output string       // the profiling run's output ("" without one)
	tr     *trace.Trace // PERFECT's piggybacked recording
	shapes *sim.ShapeCache
}

// unit is the memo state of one program's cells: what one exper.Runner
// shares across the pipelines of a benchmark.
type unit struct {
	d      *redrive
	c      *layerCounters
	log    *spanLog
	op     int64
	b      *bench.Benchmark
	src    string
	bc     *bcode.Cache
	nc     *ncode.Cache
	base   *ir.Program
	preps  map[cellID]*prepared
	traces map[cellID]*trace.Trace
	histed map[*trace.Trace]bool
	meas   map[cellID][]*exper.Measurement
}

func (d *redrive) newUnit(c *layerCounters, log *spanLog, op int64, b *bench.Benchmark, src string, bc *bcode.Cache, nc *ncode.Cache) *unit {
	return &unit{
		d: d, c: c, log: log, op: op, b: b, src: src, bc: bc, nc: nc,
		preps:  map[cellID]*prepared{},
		traces: map[cellID]*trace.Trace{},
		histed: map[*trace.Trace]bool{},
		meas:   map[cellID][]*exper.Measurement{},
	}
}

// span runs fn inside a span named name.
func (u *unit) span(name, cell string, fn func() error) error {
	u.log.begin(name, cell, u.op)
	err := fn()
	u.log.end()
	return err
}

func (u *unit) cellName(kind disamb.Kind, memLat int) string {
	return cellKey(u.b.Name, kind.String(), memLat)
}

// allCells prices every pipeline at both latencies.
func (u *unit) allCells() (map[string]*exper.Measurement, error) {
	out := map[string]*exper.Measurement{}
	for _, k := range disamb.Kinds {
		for _, lat := range exper.MemLats {
			m, err := u.measure(k, lat)
			if err != nil {
				return nil, err
			}
			out[u.cellName(k, lat)] = m
		}
	}
	return out, nil
}

// compiled parses, checks and lowers the program once.
func (u *unit) compiled() (*ir.Program, error) {
	if u.base != nil {
		return u.base, nil
	}
	var prog *ir.Program
	err := u.span("cell.compile", u.b.Name, func() error {
		var (
			ast     *lang.Program
			checked *lang.CheckedProgram
		)
		if err := u.span("lang.parse", u.b.Name, func() (err error) { ast, err = lang.Parse(u.src); return }); err != nil {
			return err
		}
		if err := u.span("lang.check", u.b.Name, func() (err error) { checked, err = lang.Check(ast); return }); err != nil {
			return err
		}
		return u.span("compile.lower", u.b.Name, func() (err error) { prog, err = compile.Lower(checked); return })
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", u.b.Name, err)
	}
	u.c.langBytes.Add(int64(len(u.src)))
	for _, name := range prog.Order {
		for _, t := range prog.Funcs[name].Trees {
			u.c.compileTrees.Add(1)
			u.c.compileOps.Add(int64(len(t.Ops)))
			u.c.compileArcs.Add(int64(len(t.Arcs)))
		}
	}
	u.base = prog
	return prog, nil
}

// prepare runs one pipeline over a private clone of the program.
func (u *unit) prepare(kind disamb.Kind, memLat int) (*prepared, error) {
	id := cellID{kind, memLat}
	if !kind.LatencySensitive() {
		id.memLat = 0
		memLat = exper.MemLats[0]
	}
	if p := u.preps[id]; p != nil {
		return p, nil
	}
	base, err := u.compiled()
	if err != nil {
		return nil, err
	}
	cell := u.cellName(kind, id.memLat)
	p := &prepared{kind: kind, memLat: memLat}
	err = u.span("cell.prepare", cell, func() error {
		p.prog = base.Clone()
		lat := machine.Infinite(memLat).LatencyFunc()
		switch kind {
		case disamb.Static:
			u.resolve(p.prog, cell)
		case disamb.Perfect:
			if _, err := u.profile(p, lat, trace.NewRecorder(), cell); err != nil {
				return err
			}
			u.span("disamb.perfect_filter", cell, func() error {
				removeSuperfluous(p.prog)
				return nil
			})
		case disamb.Spec:
			prof, err := u.profile(p, lat, nil, cell)
			if err != nil {
				return err
			}
			u.resolve(p.prog, cell)
			var res *spd.Result
			u.span("spd.transform", cell, func() error {
				res = spd.Transform(p.prog, prof, lat, u.d.params)
				return nil
			})
			u.c.spdApps.Add(int64(len(res.Apps)))
			u.c.spdAdded.Add(int64(res.AddedOps))
			if err := p.prog.Validate(); err != nil {
				return fmt.Errorf("SPEC transform broke the program: %w", err)
			}
		}
		p.shapes = sim.NewShapeCache()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s prepare: %w", cell, err)
	}
	u.c.prepares.Add(1)
	u.preps[id] = p
	return p, nil
}

func (u *unit) resolve(prog *ir.Program, cell string) {
	var st alias.Stats
	u.span("alias.resolve", cell, func() error {
		st = alias.ResolveProgram(prog)
		return nil
	})
	u.c.aliasTested.Add(int64(st.Removed + st.Definite + st.Kept))
	u.c.aliasRemoved.Add(int64(st.Removed))
}

// profile interprets the prepared program once with profiling (and, when
// rec is non-nil, trace recording).
func (u *unit) profile(p *prepared, lat ir.LatencyFunc, rec *trace.Recorder, cell string) (*sim.Profile, error) {
	prof := sim.NewProfile()
	r := &sim.Runner{Prog: p.prog, SemLat: lat, Prof: prof, Rec: rec, MaxOps: u.d.fuel, Exec: u.d.exec, TierUp: u.d.tierUp, BCode: u.bc, NCode: u.nc}
	var res *sim.Result
	if err := u.span("sim.profile", cell, func() (err error) { res, err = r.Run(); return }); err != nil {
		return nil, fmt.Errorf("profiling run: %w", err)
	}
	u.c.profileOps.Add(res.Ops)
	p.output = res.Output
	if rec != nil {
		u.span("trace.finish", cell, func() error {
			p.tr = rec.Finish(res.Ops, res.Committed)
			return nil
		})
	}
	return prof, nil
}

// removeSuperfluous is PERFECT's construction: delete every arc whose
// endpoints never touched a common address while profiling.
func removeSuperfluous(prog *ir.Program) {
	for _, name := range prog.Order {
		for _, t := range prog.Funcs[name].Trees {
			kept := t.Arcs[:0]
			for _, a := range t.Arcs {
				if a.AliasCount > 0 {
					kept = append(kept, a)
				}
			}
			t.Arcs = kept
		}
	}
}

// traceFor returns the execution trace a cell replays: the shared
// PERFECT-recorded trace for the latency-insensitive pipelines, a fresh
// capture of the transformed program for SPEC.
func (u *unit) traceFor(kind disamb.Kind, memLat int) (*trace.Trace, error) {
	id := cellID{kind, memLat}
	if !kind.LatencySensitive() {
		id = cellID{disamb.Perfect, 0}
	}
	u.c.traceReqs.Add(1)
	if tr := u.traces[id]; tr != nil {
		return tr, nil
	}
	cell := u.cellName(id.kind, id.memLat)
	var tr *trace.Trace
	err := u.span("cell.trace", cell, func() error {
		p, err := u.prepare(id.kind, memLat)
		if err != nil {
			return err
		}
		if p.tr != nil {
			tr = p.tr
			return nil
		}
		rec := trace.NewRecorder()
		r := &sim.Runner{
			Prog: p.prog, SemLat: machine.Infinite(p.memLat).LatencyFunc(), Rec: rec,
			MaxOps: u.d.fuel, Exec: u.d.exec, TierUp: u.d.tierUp, BCode: u.bc, NCode: u.nc, Shapes: p.shapes,
		}
		var res *sim.Result
		if err := u.span("sim.capture", cell, func() (err error) { res, err = r.Run(); return }); err != nil {
			return fmt.Errorf("capture run: %w", err)
		}
		if p.output != "" && res.Output != p.output {
			return fmt.Errorf("capture run output diverged from profiling run")
		}
		u.c.captureOps.Add(res.Ops)
		return u.span("trace.finish", cell, func() error {
			tr = rec.Finish(res.Ops, res.Committed)
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cell, err)
	}
	u.c.captures.Add(1)
	u.c.events.Add(tr.Events)
	u.c.traceBytes.Add(int64(tr.Size()))
	u.traces[id] = tr
	return tr, nil
}

// measure prices one cell on the infinite machine and every width by
// replaying its trace; latency-insensitive pipelines price both latencies
// in one merged 18-model replay.
func (u *unit) measure(kind disamb.Kind, memLat int) (*exper.Measurement, error) {
	id := cellID{kind, memLat}
	lats := []int{memLat}
	slot := 0
	if !kind.LatencySensitive() {
		id.memLat = 0
		lats = exper.MemLats
		for i, l := range lats {
			if l == memLat {
				slot = i
			}
		}
	}
	if ms := u.meas[id]; ms != nil {
		return ms[slot], nil
	}
	cell := u.cellName(kind, id.memLat)
	var ms []*exper.Measurement
	err := u.span("cell.measure", cell, func() error {
		p, err := u.prepare(kind, memLat)
		if err != nil {
			return err
		}
		models := make([]machine.Model, 0, len(lats)*(exper.MaxWidth+1))
		for _, lat := range lats {
			models = append(models, machine.Infinite(lat))
			for w := 1; w <= exper.MaxWidth; w++ {
				models = append(models, machine.New(w, lat))
			}
		}
		u.c.measures.Add(1)
		tr, err := u.traceFor(kind, memLat)
		if err != nil {
			return err
		}
		plans := u.plans(p, lats, models, cell)
		if !u.histed[tr] {
			var h *trace.Hist
			if err := u.span("trace.hist", cell, func() (err error) { h, err = tr.Hist(); return }); err != nil {
				return err
			}
			u.c.histEntries.Add(int64(len(h.Entries)))
			u.histed[tr] = true
		}
		rp := &sim.Replayer{Prog: p.prog, Plans: plans, Shapes: p.shapes}
		var res *sim.Result
		if err := u.span("sim.replay", cell, func() (err error) { res, err = rp.Replay(tr); return }); err != nil {
			return err
		}
		u.c.pricedOps.Add(res.Ops)
		for li := range lats {
			m := &exper.Measurement{Inf: res.Times[li*(exper.MaxWidth+1)], Ops: res.Ops}
			copy(m.ByWidth[:], res.Times[li*(exper.MaxWidth+1)+1:(li+1)*(exper.MaxWidth+1)])
			ms = append(ms, m)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s measure: %w", cell, err)
	}
	u.meas[id] = ms
	return ms[slot], nil
}

// plans builds one pricing plan per model: every tree's dependence graph
// once per memory latency, then a list schedule per model from it. The two
// loops are split (all graphs, then all schedules) so each is one span.
func (u *unit) plans(p *prepared, lats []int, models []machine.Model, cell string) []*sim.Plan {
	var trees []*ir.Tree
	for _, name := range p.prog.Order {
		trees = append(trees, p.prog.Funcs[name].Trees...)
	}
	graphs := make([][]*ir.DepGraph, len(trees)) // [tree][lat slot]
	u.span("ir.depgraph", cell, func() error {
		for ti, t := range trees {
			graphs[ti] = make([]*ir.DepGraph, len(lats))
			for li, lat := range lats {
				graphs[ti][li] = ir.BuildDepGraph(t, machine.Infinite(lat).LatencyFunc())
			}
		}
		return nil
	})
	u.c.graphs.Add(int64(len(trees) * len(lats)))
	plans := make([]*sim.Plan, len(models))
	for i, m := range models {
		plans[i] = sim.NewPlan(m.Name)
	}
	u.span("sched.schedule", cell, func() error {
		for ti, t := range trees {
			for i, m := range models {
				li := 0
				for li < len(lats) && lats[li] != m.MemLatency {
					li++
				}
				plans[i].SetTree(t, sched.FromGraph(graphs[ti][li], m.NumFUs).Comp)
			}
		}
		return nil
	})
	ops := 0
	for _, t := range trees {
		ops += len(t.Ops)
	}
	u.c.schedules.Add(int64(len(trees) * len(models)))
	u.c.opsScheduled.Add(int64(ops * len(models)))
	return plans
}
