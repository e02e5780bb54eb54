package exper

// This file is the experiment engine's fault-tolerance layer: every cell
// boundary recovers panics into structured resilience.CellErrors, failures
// are recorded in a registry instead of aborting the grid, and failed cells
// walk a bounded degradation ladder before giving up:
//
//	native failure     → one retry on the bytecode engine
//	bytecode failure   → one retry on the reference tree walker
//	corrupt trace      → one fresh capture, replayed
//	still corrupt      → a fresh recorded interpretation on the exec
//	                     ladder, priced from its own trace (never flipped)
//
// Fuel and deadline failures never retry (the outcome is determined by the
// budget, not the backend), and every rung taken is counted in Stats. The
// seeded fault-injection plan (Runner.Inject) manufactures each failure on
// demand so tests and the chaos-smoke CI job can prove every rung fires.

import (
	"errors"
	"sort"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/resilience"
	"specdis/internal/sim"
	"specdis/internal/trace"
)

// failCell classifies and registers one cell's failure, returning the
// structured error the cell's cache entry keeps. An error that already
// carries a CellError (a failed dependency cell surfacing through this one,
// or a cached failure re-requested) keeps its original identity, and the
// registry dedupes by cell name — each failure is counted exactly once, at
// its origin.
func (r *Runner) failCell(err error, b string, kind disamb.Kind, memLat int, stage string) error {
	ce := resilience.AsCellError(err, b, kind.String(), memLat, stage)
	r.failMu.Lock()
	if r.failed == nil {
		r.failed = map[string]*resilience.CellError{}
	}
	_, seen := r.failed[ce.Cell()]
	if !seen {
		r.failed[ce.Cell()] = ce
	}
	r.failMu.Unlock()
	if !seen {
		r.nCellFails.Add(1)
		switch ce.Class {
		case resilience.ClassPanic:
			r.nPanics.Add(1)
		case resilience.ClassFuel:
			r.nFuel.Add(1)
		case resilience.ClassDeadline:
			r.nDeadline.Add(1)
		}
	}
	return ce
}

// Failures returns every distinct failed cell, sorted by cell name. Empty on
// a clean run.
func (r *Runner) Failures() []*resilience.CellError {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	out := make([]*resilience.CellError, 0, len(r.failed))
	for _, ce := range r.failed {
		out = append(out, ce)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cell() < out[j].Cell() })
	return out
}

// failNote renders a failure as the short marker experiment rows carry.
func failNote(err error) string {
	var ce *resilience.CellError
	if errors.As(err, &ce) {
		return ce.Class.String()
	}
	return "error"
}

// measureCell runs one measurement cell through the degradation ladder.
// cellLat is the cell's canonical latency key (0 for the shared
// latency-insensitive cell); memLat is the latency the measurement models
// were built for.
func (r *Runner) measureCell(b *bench.Benchmark, kind disamb.Kind, cellLat, memLat int, p *disamb.Prepared, models []machine.Model) (*sim.Result, error) {
	fault := r.Inject.For(resilience.CellName(b.Name, kind.String(), cellLat))
	if fault.Kind != resilience.FaultNone {
		r.nInjected.Add(1)
	}
	if fault.Kind == resilience.FaultDropSchedule {
		// Every rung below prices through this copy's plans hook.
		q := *p
		q.ChaosPlans = func(plans []*sim.Plan) { dropMainSchedule(p.Prog, plans) }
		p = &q
	}

	// Fuel and panic faults bite inside an interpretation, which the replay
	// backend never performs per cell — force the faulted cell onto the
	// interpreting path so the failure (and its recovery) actually happens.
	switch fault.Kind {
	case resilience.FaultFuel, resilience.FaultPanic, resilience.FaultBCodePanic:
		return r.interpMeasure(b, kind, cellLat, p, models, fault)
	}
	if !r.TraceReplay {
		return r.interpMeasure(b, kind, cellLat, p, models, fault)
	}

	tr, err := r.traceFor(b, kind, memLat)
	if err != nil {
		return nil, err // registered by traceFor at its origin
	}
	if fault.Kind == resilience.FaultFlipTrace {
		tr = tr.Clone()
		tr.FlipByte(int(fault.N))
	}
	res, rerr := replayCell(b, kind, cellLat, p, models, tr)
	if rerr == nil {
		r.nReplayCells.Add(1)
		return res, nil
	}
	if resilience.Classify(rerr) != resilience.ClassCorruptTrace {
		return nil, rerr
	}

	// Rung: corrupt trace → one fresh capture, replayed. The shared trace
	// cache is left alone — the recapture serves this cell only.
	r.nRecapture.Add(1)
	tr2, cerr := r.recaptureCell(b, kind, cellLat, p)
	if cerr == nil {
		if fault.Kind == resilience.FaultFlipTrace && fault.Times > 1 {
			tr2.FlipByte(int(fault.N))
		}
		res, rerr = replayCell(b, kind, cellLat, p, models, tr2)
		if rerr == nil {
			r.nReplayCells.Add(1)
			return res, nil
		}
	} else {
		rerr = cerr
	}
	if cls := resilience.Classify(rerr); cls == resilience.ClassFuel || cls == resilience.ClassDeadline {
		return nil, rerr
	}

	// Rung: replay unusable → measure the cell from its own interpretation.
	r.nInterpFallback.Add(1)
	return r.interpMeasure(b, kind, cellLat, p, models, fault)
}

// replayCell prices one cell by replaying tr. Building its plans schedules
// the cell's trees, so a replay is a cell boundary too: a panic is recovered
// into the cell's own CellError.
func replayCell(b *bench.Benchmark, kind disamb.Kind, cellLat int, p *disamb.Prepared, models []machine.Model, tr *trace.Trace) (res *sim.Result, err error) {
	defer resilience.Recover(&err, b.Name, kind.String(), cellLat, "measure")
	return disamb.ReplayMeasure(p, models, tr)
}

// recaptureCell records a fresh trace for one cell, containing panics.
func (r *Runner) recaptureCell(b *bench.Benchmark, kind disamb.Kind, cellLat int, p *disamb.Prepared) (tr *trace.Trace, err error) {
	defer resilience.Recover(&err, b.Name, kind.String(), cellLat, "recapture")
	return disamb.Capture(p)
}

// inherit re-labels a shared profiling run's failure (Runner.profiled) as
// the "prepare" failure of the cell that needed the run, keeping its class,
// cause and stack, so each dependent cell fails once under its own name,
// exactly as when it interpreted the program itself. Errors that carry no
// CellError need no re-labelling: failCell attributes them to the caller.
func inherit(err error, b string, kind disamb.Kind, cellLat int) error {
	var ce *resilience.CellError
	if !errors.As(err, &ce) {
		return err
	}
	own := *ce
	own.Benchmark, own.Pipeline, own.MemLat, own.Stage = b, kind.String(), cellLat, "prepare"
	return &own
}

// fallbackOf returns the rung below mode on the execution-backend
// degradation ladder (native → bytecode → tree), and false at the bottom.
func fallbackOf(mode sim.ExecMode) (sim.ExecMode, bool) {
	switch mode {
	case sim.ExecNative:
		return sim.ExecBytecode, true
	case sim.ExecBytecode:
		return sim.ExecTree, true
	}
	return mode, false
}

// onLadder runs attempt on mode and, while it fails retryably, once on each
// rung below it on the execution-backend ladder (native → bytecode → tree),
// counting every rung taken. When every rung fails, the first error is kept:
// it names the root cause on the primary backend.
func onLadder[T any](r *Runner, mode sim.ExecMode, attempt func(sim.ExecMode) (T, error)) (T, error) {
	v, err := attempt(mode)
	for err != nil && resilience.Classify(err).Retryable() {
		fb, ok := fallbackOf(mode)
		if !ok {
			break
		}
		r.noteFallback(mode)
		v2, err2 := attempt(fb)
		if err2 == nil {
			return v2, nil
		}
		if !resilience.Classify(err2).Retryable() {
			break
		}
		mode = fb
	}
	return v, err
}

// noteFallback counts one ladder rung taken, attributed to the backend it
// falls away from.
func (r *Runner) noteFallback(from sim.ExecMode) {
	if from == sim.ExecNative {
		r.nNCodeFallback.Add(1)
	} else {
		r.nBCodeFallback.Add(1)
	}
}

// interpMeasure measures one cell from a fresh recorded interpretation of
// its program, priced from that run's own trace (disamb.Measure),
// applying the cell's injected fault and — for retryable compiled-engine
// failures — walking the native → bytecode → tree ladder one rung per
// failure. Each rung measures a shallow copy of p with the rung's backend
// and the fault's fuel or panic setting.
func (r *Runner) interpMeasure(b *bench.Benchmark, kind disamb.Kind, cellLat int, p *disamb.Prepared, models []machine.Model, fault resilience.Fault) (*sim.Result, error) {
	attempt := func(mode sim.ExecMode) (res *sim.Result, err error) {
		defer resilience.Recover(&err, b.Name, kind.String(), cellLat, "measure")
		q := *p
		q.Exec = mode
		switch fault.Kind {
		case resilience.FaultFuel:
			q.MaxOps = fault.N
		case resilience.FaultPanic:
			q.ChaosPanicAt = fault.N
		case resilience.FaultBCodePanic:
			// The compiled-engine-only panic: the tree-walker rung runs
			// unarmed, so this fault proves the ladder recovers the cell.
			if mode != sim.ExecTree {
				q.ChaosPanicAt = fault.N
			}
		}
		return disamb.Measure(&q, models)
	}
	res, err := onLadder(r, p.Exec, attempt)
	if err == nil {
		r.nInterpCells.Add(1)
	}
	return res, err
}

// dropMainSchedule deletes the schedule of main's entry tree from every
// plan — the schedule-dropping fault. Targeting a tree that certainly
// executes makes the injected failure deterministic.
func dropMainSchedule(prog *ir.Program, plans []*sim.Plan) {
	mainFn := prog.Funcs[prog.Main]
	if mainFn == nil || len(mainFn.Trees) == 0 {
		return
	}
	entry := mainFn.Trees[mainFn.Entry]
	for _, p := range plans {
		for i, t := range p.Trees() {
			if t == entry {
				p.Drop(i)
				break
			}
		}
	}
}
