package exper_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
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
