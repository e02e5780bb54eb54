package disamb_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"specdis/internal/bcode"
	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/disamb"
	"specdis/internal/machine"
	"specdis/internal/ncode"
	"specdis/internal/resilience"
	"specdis/internal/sim"
	"specdis/internal/spd"
	"specdis/internal/trace"
)

// TestEveryInterpretationHonorsInterp drives every interpretation entry
// point of the package through disamb.Interp: the shared profiling run, a
// preparation's private one (PERFECT and SPEC), Capture, Measure and Lint's
// dynamic half. On each, the run's exact op count as fuel succeeds and one
// op less fails with resilience.ErrFuelExhausted (Lint skips the starved
// cell instead), an already-cancelled context fails with
// resilience.ErrDeadline (Lint skips the cell too), and every backend
// produces the same result, compiling through exactly the caches it
// should. Lint's options carry no tier-up threshold, so it skips that
// setting.
func TestEveryInterpretationHonorsInterp(t *testing.T) {
	const memLat = 2
	src := bench.ByName("fft").Source
	params := spd.DefaultParams()
	models := []machine.Model{machine.Infinite(memLat), machine.New(5, memLat)}
	prog, err := compile.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// References at the default settings: the profiling run's op count,
	// which the private profiling runs and Lint's NAIVE cell share, and a
	// SPEC preparation whose own runs (Capture, Measure) execute more ops.
	run, err := disamb.ProfileRun(prog, disamb.Options{MemLat: memLat})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := disamb.PrepareFrom(run, disamb.Options{Kind: disamb.Spec, MemLat: memLat, SpD: params, Prog: prog.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	captured, err := disamb.Capture(spec)
	if err != nil {
		t.Fatal(err)
	}
	if captured.Ops == run.Trace.Ops {
		t.Fatalf("SPEC runs as many ops as the profiling run (%d): the fuel cases cannot tell them apart", run.Trace.Ops)
	}
	prepare := func(kind disamb.Kind) func(disamb.Interp) (string, error) {
		return func(in disamb.Interp) (string, error) {
			p, err := disamb.PrepareOpts(src, disamb.Options{Kind: kind, MemLat: memLat, SpD: params, Interp: in})
			if err != nil {
				return "", err
			}
			return preparedKey(p), nil
		}
	}
	// onSpec returns a copy of the SPEC preparation under in.
	onSpec := func(in disamb.Interp) *disamb.Prepared {
		q := *spec
		q.Interp = in
		return &q
	}

	entries := []struct {
		name string
		ops  int64 // the entry's interpretation's dynamic op count
		lint bool  // the entry takes no TierUp
		// run interprets under in and renders what the run produced.
		run func(in disamb.Interp) (string, error)
	}{
		{name: "ProfileRun", ops: run.Trace.Ops, run: func(in disamb.Interp) (string, error) {
			r, err := disamb.ProfileRun(prog, disamb.Options{MemLat: memLat, Interp: in})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s %q %v", traceKey(r.Trace), r.Output, *r.Profile), nil
		}},
		{name: "PrepareOpts/PERFECT", ops: run.Trace.Ops, run: prepare(disamb.Perfect)},
		{name: "PrepareOpts/SPEC", ops: run.Trace.Ops, run: prepare(disamb.Spec)},
		{name: "Capture", ops: captured.Ops, run: func(in disamb.Interp) (string, error) {
			tr, err := disamb.Capture(onSpec(in))
			if err != nil {
				return "", err
			}
			return traceKey(tr), nil
		}},
		{name: "Measure", ops: captured.Ops, run: func(in disamb.Interp) (string, error) {
			res, err := disamb.Measure(onSpec(in), models)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%+v", *res), nil
		}},
		{name: "Lint", ops: run.Trace.Ops, lint: true, run: func(in disamb.Interp) (string, error) {
			rep, err := disamb.Lint(src, disamb.LintOptions{MemLats: []int{memLat}, Exec: in.Exec, MaxOps: in.MaxOps, Ctx: in.Ctx, BCode: in.BCode, NCode: in.NCode})
			if err != nil {
				return "", err
			}
			// Lint skips a starved or cancelled cell rather than failing:
			// NAIVE's dynamic half runs the profiled program's ops, and
			// it is the first cell to interpret.
			var ce *resilience.CellError
			if errors.As(rep.SkipErr(), &ce) && ce.Cell() == fmt.Sprintf("lint/NAIVE/m%d", memLat) {
				return "", ce
			}
			return fmt.Sprintf("%+v %v", rep.Stats, rep.Findings), nil
		}},
	}
	backends := []struct {
		in           disamb.Interp
		bcode, ncode bool // whether the run compiles through each cache
	}{
		{disamb.Interp{Exec: sim.ExecTree}, false, false},
		{disamb.Interp{Exec: sim.ExecBytecode}, true, false},
		{disamb.Interp{Exec: sim.ExecNative}, false, true},
		{disamb.Interp{Exec: sim.ExecNative, TierUp: 1}, true, true},
	}

	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			if _, err := e.run(disamb.Interp{MaxOps: e.ops}); err != nil {
				t.Errorf("fuel %d (the run's count): %v", e.ops, err)
			}
			if _, err := e.run(disamb.Interp{MaxOps: e.ops - 1}); !errors.Is(err, resilience.ErrFuelExhausted) {
				t.Errorf("fuel %d: err = %v, want ErrFuelExhausted", e.ops-1, err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := e.run(disamb.Interp{Ctx: ctx}); !errors.Is(err, resilience.ErrDeadline) {
				t.Errorf("cancelled context: err = %v, want ErrDeadline", err)
			}
			var want string
			for i, b := range backends {
				if e.lint && b.in.TierUp > 0 {
					continue
				}
				var bc, nc bcode.Counters
				in := b.in
				in.BCode, in.NCode = bcode.NewCache(&bc), ncode.NewCache(&nc)
				got, err := e.run(in)
				if err != nil {
					t.Fatalf("%v tierup=%d: %v", in.Exec, in.TierUp, err)
				}
				if i == 0 {
					want = got
				} else if got != want {
					t.Errorf("%v tierup=%d: result differs from the tree walker's", in.Exec, in.TierUp)
				}
				if (bc.Compiled.Load() > 0) != b.bcode || (nc.Compiled.Load() > 0) != b.ncode {
					t.Errorf("%v tierup=%d: compiled %d bytecode and %d native trees, want bytecode %v, native %v",
						in.Exec, in.TierUp, bc.Compiled.Load(), nc.Compiled.Load(), b.bcode, b.ncode)
				}
			}
		})
	}
}

// traceKey renders a trace: its encoded histogram and totals.
func traceKey(tr *trace.Trace) string {
	return fmt.Sprintf("%x %d %d %d %d", tr.Bytes(), tr.Ops, tr.Committed, tr.Events, tr.TreeExecs)
}

// preparedKey renders what a preparation's profiling run decided: the
// final program with every arc's profiled counters, and the run's output.
func preparedKey(p *disamb.Prepared) string {
	var b strings.Builder
	b.WriteString(p.Output)
	for _, name := range p.Prog.Order {
		for _, t := range p.Prog.Funcs[name].Trees {
			b.WriteString(t.String())
			for _, a := range t.Arcs {
				fmt.Fprintf(&b, "%d/%d ", a.ExecCount, a.AliasCount)
			}
		}
	}
	return b.String()
}
