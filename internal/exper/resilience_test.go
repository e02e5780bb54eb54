package exper_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/ir"
	"specdis/internal/resilience"
	"specdis/internal/sim"
)

// These tests prove every rung of the degradation ladder fires — and that
// every manufactured failure surfaces as a structured CellError instead of
// killing the process — by dealing one precisely-targeted fault per runner
// via FaultPlan.Cells.

// faulted returns a single-benchmark runner with the given faults dealt.
func faulted(cells map[string]resilience.Fault) (*exper.Runner, *bench.Benchmark) {
	b := bench.ByName("moment")
	r := exper.New()
	r.Benchmarks = []*bench.Benchmark{b}
	if cells != nil {
		r.Inject = &resilience.FaultPlan{Cells: cells}
	}
	return r, b
}

// cleanNaive measures moment/NAIVE/m2 on a pristine runner — the baseline
// every recovered cell must match exactly.
func cleanNaive(t *testing.T) *exper.Measurement {
	t.Helper()
	r, b := faulted(nil)
	m, err := r.Measure(b, disamb.Naive, 2)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInjectedPanicIsIsolated(t *testing.T) {
	cell := resilience.CellName("moment", "NAIVE", 0)
	r, b := faulted(map[string]resilience.Fault{
		cell: {Kind: resilience.FaultPanic, N: 1000},
	})
	_, err := r.Measure(b, disamb.Naive, 2)
	if !errors.Is(err, resilience.ErrInjected) {
		t.Fatalf("err = %v, want recovered injected panic", err)
	}
	var ce *resilience.CellError
	if !errors.As(err, &ce) || ce.Class != resilience.ClassPanic || ce.Cell() != cell {
		t.Fatalf("err = %v, want ClassPanic CellError for %s", err, cell)
	}
	// The panic fires on both backends, so the bounded bcode→tree retry must
	// have been taken — and must have given up rather than looping.
	st := r.Stats()
	if st.CellFailures != 1 || st.CellPanics != 1 || st.BCodeFallbacks != 1 || st.FaultsInjected != 1 {
		t.Fatalf("stats = %+v, want 1 failure, 1 panic, 1 bcode fallback, 1 injection", st)
	}
	// The failed cell must not poison its neighbours.
	if _, err := r.Measure(b, disamb.Spec, 2); err != nil {
		t.Fatalf("sibling SPEC cell failed too: %v", err)
	}
	fails := r.Failures()
	if len(fails) != 1 || fails[0].Cell() != cell {
		t.Fatalf("Failures() = %v, want exactly %s", fails, cell)
	}
}

func TestInjectedFuelFailure(t *testing.T) {
	cell := resilience.CellName("moment", "NAIVE", 0)
	r, b := faulted(map[string]resilience.Fault{
		cell: {Kind: resilience.FaultFuel, N: 500},
	})
	_, err := r.Measure(b, disamb.Naive, 2)
	if !errors.Is(err, resilience.ErrFuelExhausted) {
		t.Fatalf("err = %v, want ErrFuelExhausted", err)
	}
	st := r.Stats()
	// Fuel exhaustion is deterministic: the ladder must not burn a retry.
	if st.FuelExhausted != 1 || st.BCodeFallbacks != 0 {
		t.Fatalf("stats = %+v, want 1 fuel failure and no bcode fallback", st)
	}
}

func TestFlipTraceRecaptureRung(t *testing.T) {
	want := cleanNaive(t)
	cell := resilience.CellName("moment", "NAIVE", 0)
	r, b := faulted(map[string]resilience.Fault{
		cell: {Kind: resilience.FaultFlipTrace, N: 7, Times: 1},
	})
	got, err := r.Measure(b, disamb.Naive, 2)
	if err != nil {
		t.Fatalf("recapture rung did not recover the cell: %v", err)
	}
	if *got != *want {
		t.Fatalf("recovered measurement differs from clean run:\ngot  %+v\nwant %+v", got, want)
	}
	st := r.Stats()
	if st.TraceRecaptures != 1 || st.InterpFallbacks != 0 || st.CellFailures != 0 {
		t.Fatalf("stats = %+v, want exactly one recapture and no deeper rung", st)
	}
}

func TestFlipTraceInterpFallbackRung(t *testing.T) {
	want := cleanNaive(t)
	cell := resilience.CellName("moment", "NAIVE", 0)
	r, b := faulted(map[string]resilience.Fault{
		// Times=2 corrupts the recaptured trace too, pushing the cell all
		// the way down to interpreting measurement.
		cell: {Kind: resilience.FaultFlipTrace, N: 7, Times: 2},
	})
	got, err := r.Measure(b, disamb.Naive, 2)
	if err != nil {
		t.Fatalf("interp fallback rung did not recover the cell: %v", err)
	}
	if *got != *want {
		t.Fatalf("recovered measurement differs from clean run:\ngot  %+v\nwant %+v", got, want)
	}
	st := r.Stats()
	if st.TraceRecaptures != 1 || st.InterpFallbacks != 1 || st.CellFailures != 0 {
		t.Fatalf("stats = %+v, want one recapture then one interp fallback", st)
	}
}

func TestBCodePanicFallbackRung(t *testing.T) {
	want := cleanNaive(t)
	cell := resilience.CellName("moment", "NAIVE", 0)
	r, b := faulted(map[string]resilience.Fault{
		cell: {Kind: resilience.FaultBCodePanic, N: 1000},
	})
	got, err := r.Measure(b, disamb.Naive, 2)
	if err != nil {
		t.Fatalf("bcode→tree rung did not recover the cell: %v", err)
	}
	if *got != *want {
		t.Fatalf("recovered measurement differs from clean run:\ngot  %+v\nwant %+v", got, want)
	}
	st := r.Stats()
	if st.BCodeFallbacks != 1 || st.CellFailures != 0 {
		t.Fatalf("stats = %+v, want one recovered bcode fallback", st)
	}
}

// TestNativeLadderRecovers proves the extended ladder walks both rungs: a
// compiled-engine panic on a native-backend runner falls native → bytecode
// (still armed, panics again) → tree walker (unarmed, recovers), and the
// recovered measurement is byte-identical to a clean run.
func TestNativeLadderRecovers(t *testing.T) {
	want := cleanNaive(t)
	cell := resilience.CellName("moment", "NAIVE", 0)
	r, b := faulted(map[string]resilience.Fault{
		cell: {Kind: resilience.FaultBCodePanic, N: 1000},
	})
	r.Exec = sim.ExecNative
	got, err := r.Measure(b, disamb.Naive, 2)
	if err != nil {
		t.Fatalf("native ladder did not recover the cell: %v", err)
	}
	if *got != *want {
		t.Fatalf("recovered measurement differs from clean run:\ngot  %+v\nwant %+v", got, want)
	}
	st := r.Stats()
	if st.NCodeFallbacks != 1 || st.BCodeFallbacks != 1 || st.CellFailures != 0 {
		t.Fatalf("stats = %+v, want one native and one bcode rung, no failure", st)
	}
}

// TestNativePanicExhaustsLadder proves an every-backend panic on a native
// runner takes both rungs and still fails structured — the ladder is bounded.
func TestNativePanicExhaustsLadder(t *testing.T) {
	cell := resilience.CellName("moment", "NAIVE", 0)
	r, b := faulted(map[string]resilience.Fault{
		cell: {Kind: resilience.FaultPanic, N: 1000},
	})
	r.Exec = sim.ExecNative
	_, err := r.Measure(b, disamb.Naive, 2)
	if !errors.Is(err, resilience.ErrInjected) {
		t.Fatalf("err = %v, want recovered injected panic", err)
	}
	st := r.Stats()
	if st.NCodeFallbacks != 1 || st.BCodeFallbacks != 1 || st.CellFailures != 1 || st.CellPanics != 1 {
		t.Fatalf("stats = %+v, want both rungs taken and one structured failure", st)
	}
}

// TestPreparationFailureWalksNoLadder makes PERFECT's preparation fail
// deterministically: one arc dropped from fft's compiled base after its
// profiling run leaves the shared profile describing a different program.
// A preparation interprets nothing, so the failure must surface once, at
// stage prepare, without a backend retry or a fallback counted.
func TestPreparationFailureWalksNoLadder(t *testing.T) {
	b := bench.ByName("fft")
	r := exper.New()
	r.Benchmarks = []*bench.Benchmark{b}
	// NAIVE replays the shared profiling run's trace, so measuring it runs
	// that profiling run.
	if _, err := r.Measure(b, disamb.Naive, 2); err != nil {
		t.Fatal(err)
	}
	base, err := r.Base(b)
	if err != nil {
		t.Fatal(err)
	}
	main := base.Funcs[base.Main]
	dropped := false
	for _, tr := range main.Trees {
		if n := len(tr.Arcs); n > 0 {
			tr.Arcs = tr.Arcs[:n-1]
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("fft's main has no tree with arcs")
	}
	_, err = r.Prepared(b, disamb.Perfect, 2)
	var ce *resilience.CellError
	if !errors.As(err, &ce) || ce.Stage != "prepare" || !strings.Contains(err.Error(), "profile does not match") {
		t.Fatalf("err = %v, want a profile mismatch at stage prepare", err)
	}
	st := r.Stats()
	if st.NCodeFallbacks != 0 || st.BCodeFallbacks != 0 || st.CellFailures != 1 {
		t.Fatalf("stats = %+v, want one failed cell and no ladder rung taken", st)
	}
}

func TestDropScheduleIsTypedFailure(t *testing.T) {
	cell := resilience.CellName("moment", "NAIVE", 0)
	r, b := faulted(map[string]resilience.Fault{
		cell: {Kind: resilience.FaultDropSchedule},
	})
	_, err := r.Measure(b, disamb.Naive, 2)
	if !errors.Is(err, resilience.ErrMissingSchedule) {
		t.Fatalf("err = %v, want ErrMissingSchedule", err)
	}
	var ce *resilience.CellError
	if !errors.As(err, &ce) || ce.Class != resilience.ClassMissingSchedule {
		t.Fatalf("err = %v, want ClassMissingSchedule CellError", err)
	}
}

func TestDeadlineFailsCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, b := faulted(nil)
	r.Ctx = ctx
	_, err := r.Measure(b, disamb.Naive, 2)
	if !errors.Is(err, resilience.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if st := r.Stats(); st.DeadlineExceeded != 1 {
		t.Fatalf("stats = %+v, want 1 deadline failure", st)
	}
}

// TestFailedRowsAreMarked proves the experiments record-and-continue: an
// injected failure marks its rows FAIL instead of aborting the grid, and
// the renderer prints the marker.
func TestFailedRowsAreMarked(t *testing.T) {
	cell := resilience.CellName("moment", "NAIVE", 0)
	r, _ := faulted(map[string]resilience.Fault{
		cell: {Kind: resilience.FaultPanic, N: 1000},
	})
	rows, err := r.Figure62()
	if err != nil {
		t.Fatalf("Figure62 aborted on a cell failure: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, row := range rows {
		if row.Fail != "panic" {
			t.Fatalf("row %+v, want Fail=panic (NAIVE baseline is shared across latencies)", row)
		}
	}
	var sb strings.Builder
	if err := r.StreamFigure62(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "FAIL(panic)") {
		t.Fatalf("rendered figure lacks the FAIL marker:\n%s", sb.String())
	}
}

// TestCleanRunHasNoResilienceFootprint pins the byte-identity invariant's
// foundation: without injection, no failure, fallback, or recovery counter
// moves.
func TestCleanRunHasNoResilienceFootprint(t *testing.T) {
	r, b := faulted(nil)
	if _, err := r.Measure(b, disamb.Naive, 2); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.CellFailures != 0 || st.BCodeFallbacks != 0 || st.TraceRecaptures != 0 ||
		st.InterpFallbacks != 0 || st.FaultsInjected != 0 {
		t.Fatalf("clean run moved resilience counters: %+v", st)
	}
	if len(r.Failures()) != 0 {
		t.Fatalf("clean run registered failures: %v", r.Failures())
	}
}

// TestSharedProfileFailureAttribution pins how a failed shared profiling run
// surfaces: every PERFECT and SPEC preparation that read it fails once,
// under its own cell name, at stage prepare, exactly as when each cell
// interpreted the program itself; the arc-only cells' trace failure is
// PERFECT's. The set, and the counts, are the same at every pool width.
func TestSharedProfileFailureAttribution(t *testing.T) {
	for _, par := range []int{1, 4} {
		r := exper.New()
		r.Par = par
		r.Benchmarks = []*bench.Benchmark{bench.ByName("perm"), bench.ByName("moment")}
		r.Fuel = 10 // starves every interpretation
		if _, err := r.Figure62(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Table63(); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, ce := range r.Failures() {
			if ce.Stage != "prepare" || ce.Class != resilience.ClassFuel {
				t.Errorf("par %d: %s failed at stage %s [%s], want prepare [fuel]", par, ce.Cell(), ce.Stage, ce.Class)
			}
			got = append(got, ce.Cell())
		}
		want := []string{
			"moment/PERFECT/m0", "moment/SPEC/m2", "moment/SPEC/m6",
			"perm/PERFECT/m0", "perm/SPEC/m2", "perm/SPEC/m6",
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("par %d: failed cells %v, want %v", par, got, want)
		}
		if st := r.Stats(); st.CellFailures != 6 || st.FuelExhausted != 6 || st.ProfileRuns != 2 {
			t.Fatalf("par %d: stats = %+v, want 6 fuel failures from 2 profiling runs", par, st)
		}
	}
}

// TestDeclinedDerivationFailsAsCapture pins how a budget the derivation
// cannot honour surfaces: with fuel enough for the profiling run but not
// for the SPEC program, Derive declines, the capture runs out of fuel, and
// the SPEC cell fails at stage capture with class fuel, as before
// derivation existed; the arc-only cells still measure.
func TestDeclinedDerivationFailsAsCapture(t *testing.T) {
	b := bench.ByName("moment")
	probe := exper.New()
	probe.Benchmarks = []*bench.Benchmark{b}
	base, err := probe.Measure(b, disamb.Naive, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := probe.Measure(b, disamb.Spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Ops <= base.Ops {
		t.Fatalf("SPEC executes %d ops, the base program %d: no budget separates them", spec.Ops, base.Ops)
	}

	r := exper.New()
	r.Benchmarks = []*bench.Benchmark{b}
	r.Fuel = base.Ops
	_, err = r.Measure(b, disamb.Spec, 6)
	var ce *resilience.CellError
	if !errors.As(err, &ce) || ce.Stage != "capture" || ce.Class != resilience.ClassFuel {
		t.Fatalf("SPEC over budget: err = %v, want a fuel failure at stage capture", err)
	}
	if _, err := r.Measure(b, disamb.Naive, 2); err != nil {
		t.Fatalf("NAIVE under the same budget: %v", err)
	}
	if st := r.Stats(); st.TraceDerived != 0 || st.CellFailures != 1 || st.FuelExhausted != 1 {
		t.Errorf("stats = %+v, want no derived trace and one fuel failure", st)
	}
}

// addCycle gives the first arc-free tree of prog with a register flow a
// dependence cycle: an arc from the reading op back to the definition it
// reads, so list-scheduling the tree panics. Clones of one program get the
// same cycle in the same tree.
func addCycle(t *testing.T, prog *ir.Program) {
	t.Helper()
	for _, name := range prog.Order {
		for _, tr := range prog.Funcs[name].Trees {
			if len(tr.Arcs) > 0 {
				continue
			}
			for _, use := range tr.Ops {
				for _, def := range tr.Ops[:use.Seq] {
					if def.Dest != ir.NoReg && slices.Contains(use.Args, def.Dest) {
						tr.Arcs = append(tr.Arcs, &ir.MemArc{From: use, To: def, Kind: ir.DepRAW})
						return
					}
				}
			}
		}
	}
	t.Fatal("no tree to give a cycle")
}

// TestSchedulePanicFailsItsCell makes scheduling panic in two cells that
// schedule the same graph through the runner's shared cache: the NAIVE and
// STATIC programs get the same dependence cycle in an arc-free tree. Each
// cell must fail on its own with a recovered panic at stage measure, no
// cell may wait forever on the key the other's panic abandoned, and the
// benchmark's other cells must still measure.
func TestSchedulePanicFailsItsCell(t *testing.T) {
	b := bench.ByName("moment")
	r := exper.New()
	r.Benchmarks = []*bench.Benchmark{b}
	for _, kind := range []disamb.Kind{disamb.Naive, disamb.Static} {
		p, err := r.Prepared(b, kind, 2)
		if err != nil {
			t.Fatal(err)
		}
		addCycle(t, p.Prog)
	}
	errs := make(chan error, 2)
	for _, kind := range []disamb.Kind{disamb.Naive, disamb.Static} {
		go func() {
			_, err := r.Measure(b, kind, 2)
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			var ce *resilience.CellError
			if !errors.As(err, &ce) || ce.Class != resilience.ClassPanic || ce.Stage != "measure" ||
				!strings.Contains(err.Error(), "dependence cycle") {
				t.Fatalf("err = %v, want the list scheduler's recovered panic at stage measure", err)
			}
		case <-time.After(time.Minute):
			t.Fatal("a cell is still waiting on a schedule whose computation panicked")
		}
	}
	if _, err := r.Measure(b, disamb.Spec, 2); err != nil {
		t.Fatalf("SPEC cell: %v", err)
	}
	if st := r.Stats(); st.CellFailures != 2 || st.CellPanics != 2 {
		t.Errorf("stats: %+v, want 2 failed cells, both panics", st)
	}
}
