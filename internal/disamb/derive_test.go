package disamb_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/disamb"
	"specdis/internal/ir"
	"specdis/internal/resilience"
	"specdis/internal/sim"
	"specdis/internal/spd"
	"specdis/internal/trace"
)

// deriveAndCapture prepares SPEC from a shared profiling run of prog and
// returns the derived trace (nil when Derive declined, with its error) and
// the captured one.
func deriveAndCapture(t *testing.T, prog *ir.Program, memLat int, params spd.Params, maxOps int64) (derived *trace.Trace, derr error, captured *trace.Trace, p *disamb.Prepared) {
	t.Helper()
	o := disamb.Options{Kind: disamb.Spec, MemLat: memLat, SpD: params, Interp: disamb.Interp{MaxOps: maxOps}}
	run, err := disamb.ProfileRun(prog, o)
	if err != nil {
		return nil, nil, nil, nil // the program does not run under the budget
	}
	o.Prog = prog.Clone()
	if p, err = disamb.PrepareFrom(run, o); err != nil {
		t.Fatalf("PrepareFrom: %v", err)
	}
	derived, derr = disamb.Derive(p, run)
	if captured, err = disamb.Capture(p); err != nil {
		t.Fatalf("Capture: %v", err)
	}
	return derived, derr, captured, p
}

// sameTrace reports how a derived trace differs from a captured one, or "".
func sameTrace(derived, captured *trace.Trace) string {
	switch {
	case !bytes.Equal(derived.Bytes(), captured.Bytes()):
		return "histogram bytes differ"
	case derived.Ops != captured.Ops || derived.Committed != captured.Committed:
		return "Ops/Committed differ"
	case derived.Events != captured.Events || derived.TreeExecs != captured.TreeExecs:
		return "event counts differ"
	}
	return ""
}

// TestDeriveMatchesCaptureOnSuite requires the trace Derive builds from a
// benchmark's profiling run to equal, byte for byte and in every total, the
// trace a capture interpretation of its SPEC program records, on every
// suite benchmark at both memory latencies.
func TestDeriveMatchesCaptureOnSuite(t *testing.T) {
	changed := 0
	for _, b := range bench.All() {
		prog, err := compile.Compile(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, memLat := range []int{2, 6} {
			derived, derr, captured, p := deriveAndCapture(t, prog, memLat, spd.DefaultParams(), 0)
			if derr != nil {
				t.Fatalf("%s m%d: Derive declined: %v", b.Name, memLat, derr)
			}
			if d := sameTrace(derived, captured); d != "" {
				t.Errorf("%s m%d: derived trace differs from capture: %s", b.Name, memLat, d)
			}
			changed += len(p.SpD.Apps)
		}
	}
	if changed == 0 {
		t.Fatal("no SpD application: the comparison is vacuous")
	}
}

// TestDeriveMatchesCaptureOnRandomPrograms is the same comparison on 300
// generated programs at two heuristic thresholds. Derive may decline (the
// caller then captures), but whatever it builds must be the capture.
func TestDeriveMatchesCaptureOnRandomPrograms(t *testing.T) {
	n := int64(300)
	if testing.Short() {
		n = 40
	}
	derivedN, apps := 0, 0
	for seed := int64(1); seed <= n; seed++ {
		src := newProgGen(seed).generate()
		prog, err := compile.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		memLat := 2 + 4*int(seed%2)
		for _, minGain := range []float64{0.01, 0.25} {
			params := spd.DefaultParams()
			params.MinGain = minGain
			derived, derr, captured, p := deriveAndCapture(t, prog, memLat, params, 5_000_000)
			if p == nil {
				continue
			}
			apps += len(p.SpD.Apps)
			if derr != nil {
				if !errors.Is(derr, disamb.ErrNotDerived) {
					t.Fatalf("seed %d: Derive error %v does not wrap ErrNotDerived", seed, derr)
				}
				continue
			}
			derivedN++
			if d := sameTrace(derived, captured); d != "" {
				t.Fatalf("seed %d m%d MinGain %v: derived trace differs from capture: %s\n%s", seed, memLat, minGain, d, src)
			}
		}
	}
	if derivedN < int(n) || apps < int(n) {
		t.Fatalf("only %d of %d derivations succeeded over %d SpD applications", derivedN, 2*n, apps)
	}
	t.Logf("%d derived traces over %d SpD applications", derivedN, apps)
}

// TestDeriveDeclinesOverBudget requires Derive to decline, not to build a
// trace, when the SPEC program would exceed its fuel or its context is
// done: the capture it leaves to the caller fails typed.
func TestDeriveDeclinesOverBudget(t *testing.T) {
	prog, err := compile.Compile(bench.ByName("fft").Source)
	if err != nil {
		t.Fatal(err)
	}
	o := disamb.Options{Kind: disamb.Spec, MemLat: 6, SpD: spd.DefaultParams()}
	run, err := disamb.ProfileRun(prog, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Prog = prog.Clone()
	p, err := disamb.PrepareFrom(run, o)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := disamb.Derive(p, run)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxOps = tr.Ops - 1
	if _, err := disamb.Derive(p, run); !errors.Is(err, disamb.ErrNotDerived) {
		t.Errorf("over fuel: Derive err = %v, want ErrNotDerived", err)
	}
	if _, err := disamb.Capture(p); !errors.Is(err, resilience.ErrFuelExhausted) {
		t.Errorf("over fuel: Capture err = %v, want ErrFuelExhausted", err)
	}
	p.MaxOps = 0
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p.Ctx = ctx
	if _, err := disamb.Derive(p, run); !errors.Is(err, disamb.ErrNotDerived) {
		t.Errorf("done context: Derive err = %v, want ErrNotDerived", err)
	}
}

// forceAlias rewrites every address compare SpD inserted into p's program
// as the constant "the addresses match": a wrong speculative
// disambiguation, since the alias copies then forward stored values, read
// stores' old contents and suppress overwritten stores whether or not the
// addresses match. It returns how many compares it rewrote.
func forceAlias(p *disamb.Prepared) int {
	n := 0
	for _, app := range p.SpD.Apps {
		for _, pair := range app.Pairs {
			for _, op := range app.Tree.Ops {
				if op.Kind == ir.OpCmpEQ && op.Dest == pair.Guard {
					op.Kind, op.Args, op.Imm = ir.OpConst, nil, ir.Value{I: 1, F: 1}
					n++
				}
			}
		}
	}
	return n
}

// TestWitnessCheckRejectsWrongSpD seeds a wrong SpD application into the
// SPEC program of every suite benchmark (forceAlias). Derive must reject it
// with ErrWitnessCheck, or else the corruption changed nothing the program
// computes — then a capture, whose output check is what the witness check
// replaces, must accept it too, and record the trace Derive built.
func TestWitnessCheckRejectsWrongSpD(t *testing.T) {
	rejected := 0
	for _, b := range bench.All() {
		prog, err := compile.Compile(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		o := disamb.Options{Kind: disamb.Spec, MemLat: 6, SpD: spd.DefaultParams()}
		run, err := disamb.ProfileRun(prog, o)
		if err != nil {
			t.Fatal(err)
		}
		o.Prog = prog.Clone()
		p, err := disamb.PrepareFrom(run, o)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := disamb.Derive(p, run); err != nil {
			t.Fatalf("%s: untouched program: %v", b.Name, err)
		}
		if forceAlias(p) == 0 {
			continue
		}
		derived, err := disamb.Derive(p, run)
		if errors.Is(err, disamb.ErrWitnessCheck) {
			rejected++
			continue
		}
		if err != nil {
			t.Fatalf("%s: Derive failed for another reason: %v", b.Name, err)
		}
		captured, err := disamb.Capture(p)
		if err != nil {
			t.Fatalf("%s: the witness check accepted what a capture rejects: %v", b.Name, err)
		}
		if d := sameTrace(derived, captured); d != "" {
			t.Errorf("%s: derived trace differs from capture: %s", b.Name, d)
		}
	}
	if rejected < 5 {
		t.Fatalf("the witness check rejected %d wrong SpD programs, want at least 5", rejected)
	}
}

// BenchmarkDerive times building the SPEC traces of the suite at both
// latencies from each benchmark's profiling run, against capturing them
// with one interpretation each, the work Derive replaces.
func BenchmarkDerive(b *testing.B) {
	type cell struct {
		p   *disamb.Prepared
		run *disamb.Profiled
	}
	var cells []cell
	for _, bm := range bench.All() {
		prog, err := compile.Compile(bm.Source)
		if err != nil {
			b.Fatal(err)
		}
		// spdbench's engine settings: the native tier under adaptive tiering.
		o := disamb.Options{Kind: disamb.Spec, SpD: spd.DefaultParams(), Interp: disamb.Interp{Exec: sim.ExecNative, TierUp: 32}}
		run, err := disamb.ProfileRun(prog, o)
		if err != nil {
			b.Fatal(err)
		}
		for _, memLat := range []int{2, 6} {
			o.MemLat, o.Prog = memLat, prog.Clone()
			p, err := disamb.PrepareFrom(run, o)
			if err != nil {
				b.Fatal(err)
			}
			cells = append(cells, cell{p, run})
		}
	}
	b.Run("derive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range cells {
				if _, err := disamb.Derive(c.p, c.run); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("capture", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, c := range cells {
				if _, err := disamb.Capture(c.p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// staleCompare finds, in tree name of p's SPEC program, an SpD address
// compare that reads a register every definition of which sits under an
// earlier SpD application's alias guard: on the no-alias path that register
// keeps a value from an earlier execution. It describes the first one, or
// returns "".
func staleCompare(p *disamb.Prepared, name string) string {
	var guards []ir.Reg // alias guard of each application on the tree, in order
	var tree *ir.Tree
	for _, app := range p.SpD.Apps {
		if app.Tree.Name == name && len(app.Pairs) > 0 {
			tree = app.Tree
			guards = append(guards, app.Pairs[0].Guard)
		}
	}
	for j, g := range guards {
		for _, cmp := range tree.Ops {
			if cmp.Kind != ir.OpCmpEQ || cmp.Dest != g {
				continue
			}
			for _, r := range cmp.Args {
				var defs []*ir.Op
				for _, op := range tree.Ops {
					if op.Dest == r {
						defs = append(defs, op)
					}
				}
				stale := len(defs) > 0
				for _, d := range defs {
					stale = stale && !d.GuardNeg && slices.Contains(guards[:j], d.Guard)
				}
				if stale {
					return fmt.Sprintf("%%%d %s reads r%d, defined only by %%%d under alias guard r%d", cmp.ID, cmp.Kind, r, defs[0].ID, defs[0].Guard)
				}
			}
		}
	}
	return ""
}

// TestChainedSpDComparesStaleAddress pins a named exception to derivation
// (EXPERIMENTS.md, "Measurement backends"). On generated program seed 28 at
// memory latency 2, SpD applies twice in tree main.b5, and the second
// application's address compare reads an address register that only the
// first application's alias-side ops define. On the no-alias path it
// compares a stale address, so which copy commits depends on history, not
// on the tree's entry state: Derive declines with sim.ErrOutsideWitness and
// the cell is captured. Both copies compute the same values, so the
// program's output does not change: Capture, which fails when its output
// differs from the profiling run's, succeeds.
func TestChainedSpDComparesStaleAddress(t *testing.T) {
	const retire = "if the SpD transform no longer chains an application onto an earlier one's alias side, retire this named exception (this test and its note in EXPERIMENTS.md)"
	prog, err := compile.Compile(newProgGen(28).generate())
	if err != nil {
		t.Fatal(err)
	}
	for _, minGain := range []float64{0.01, 0.25} {
		params := spd.DefaultParams()
		params.MinGain = minGain
		o := disamb.Options{Kind: disamb.Spec, MemLat: 2, SpD: params, Interp: disamb.Interp{MaxOps: 5_000_000}}
		run, err := disamb.ProfileRun(prog, o)
		if err != nil {
			t.Fatal(err)
		}
		o.Prog = prog.Clone()
		p, err := disamb.PrepareFrom(run, o)
		if err != nil {
			t.Fatal(err)
		}
		stale := staleCompare(p, "main.b5")
		if stale == "" {
			t.Fatalf("MinGain %v: no SpD address compare in main.b5 reads a register only an earlier application's alias side defines; %s", minGain, retire)
		}
		_, derr := disamb.Derive(p, run)
		if !errors.Is(derr, sim.ErrOutsideWitness) || !errors.Is(derr, disamb.ErrNotDerived) {
			t.Fatalf("MinGain %v (%s): Derive error %v, want one wrapping sim.ErrOutsideWitness; %s", minGain, stale, derr, retire)
		}
		if run.Output == "" {
			t.Fatalf("MinGain %v: the program prints nothing, so Capture checks no output", minGain)
		}
		if _, err := disamb.Capture(p); err != nil {
			t.Fatalf("MinGain %v (%s): the capture's output differs from the original program's: %v", minGain, stale, err)
		}
		t.Logf("MinGain %v: %s; Derive: %v", minGain, stale, derr)
	}
}
