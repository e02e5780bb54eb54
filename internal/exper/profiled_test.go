package exper

import (
	"slices"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/disamb"
	"specdis/internal/ir"
	"specdis/internal/resilience"
)

// TestSharedProfilePanicExhaustsLadder crashes the shared profiling run on
// every rung: the run must recover the panic inside its singleflight call
// (a panic escaping group.Do would block every waiter forever), walk the
// native → bytecode → tree ladder once, and leave each PERFECT and SPEC
// preparation that needed it failing once, as a panic, under its own name.
func TestSharedProfilePanicExhaustsLadder(t *testing.T) {
	b := bench.ByName("moment")
	prog, err := compile.Compile(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	// An operand register far outside every frame: each engine indexes the
	// register file with it and panics.
	main := prog.Funcs[prog.Main]
	corrupted := false
	for _, op := range main.Trees[main.Entry].Ops {
		if len(op.Args) > 0 {
			op.Args[0] = 1 << 20
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("main's entry tree has no op with operands")
	}
	r := New()
	r.Par = 1
	r.Benchmarks = []*bench.Benchmark{b}
	if _, err := r.base.Do(b.Name, func() (*ir.Program, error) { return prog, nil }); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind   disamb.Kind
		memLat int
	}{{disamb.Perfect, 2}, {disamb.Spec, 2}, {disamb.Spec, 6}} {
		if _, err := r.Prepared(b, c.kind, c.memLat); resilience.Classify(err) != resilience.ClassPanic {
			t.Fatalf("%s/%d: err = %v, want a recovered panic", c.kind, c.memLat, err)
		}
	}
	var got []string
	for _, ce := range r.Failures() {
		if ce.Stage != "prepare" || ce.Class != resilience.ClassPanic {
			t.Errorf("%s failed at stage %s [%s], want prepare [panic]", ce.Cell(), ce.Stage, ce.Class)
		}
		got = append(got, ce.Cell())
	}
	want := []string{"moment/PERFECT/m0", "moment/SPEC/m2", "moment/SPEC/m6"}
	if !slices.Equal(got, want) {
		t.Fatalf("failed cells %v, want %v", got, want)
	}
	st := r.Stats()
	if st.ProfileRuns != 1 || st.CellPanics != 3 || st.NCodeFallbacks != 1 || st.BCodeFallbacks != 1 {
		t.Fatalf("stats = %+v, want 1 profiling run walking both rungs once, 3 panicked cells", st)
	}
}
