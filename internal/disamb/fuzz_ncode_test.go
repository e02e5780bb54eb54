package disamb_test

import (
	"reflect"
	"strings"
	"testing"

	"specdis/internal/disamb"
	"specdis/internal/machine"
	"specdis/internal/sim"
	"specdis/internal/spd"
	"specdis/internal/trace"
)

// FuzzNativeVsBCode is the differential fuzzer for the native closure-chain
// execution tier: every MiniC program that compiles must behave identically
// on the native executor and the bytecode engine, under every disambiguator
// pipeline. Checked at the same full strength as FuzzBytecodeVsTree —
// printed output, main's exit value, dynamic operation and commit counts,
// the cycle price under every machine model, and the captured execution
// trace (per-tree commit-bit patterns, taken exits and call sequence,
// compared through the trace histogram). Since the bytecode engine is itself
// fuzzed against the reference tree walker, agreement here chains all three
// engines together. Any divergence is a crash; inputs that fail to compile
// or blow the small operation budget are skipped.
func FuzzNativeVsBCode(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for seed := int64(1); seed <= 5; seed++ {
		f.Add(newProgGen(seed).generate())
	}
	models := []machine.Model{machine.Infinite(2), machine.New(3, 6)}
	params := spd.DefaultParams()
	params.MinGain = 0.01 // transform aggressively to stress guarded code
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		type outcome struct {
			res  *sim.Result
			hist *trace.Hist
		}
		for _, kind := range disamb.Kinds {
			run := func(mode sim.ExecMode) (*outcome, error) {
				p, err := disamb.PrepareOpts(src, disamb.Options{
					Kind:   kind,
					MemLat: 2,
					SpD:    params,
					Interp: disamb.Interp{MaxOps: 2_000_000, Exec: mode},
				})
				if err != nil {
					return nil, err
				}
				if mode == sim.ExecNative {
					validateCompiled(t, p, src)
				}
				res, err := disamb.Measure(p, models)
				if err != nil {
					return nil, err
				}
				tr, err := disamb.Capture(p)
				if err != nil {
					return nil, err
				}
				hist, err := tr.Hist()
				if err != nil {
					return nil, err
				}
				return &outcome{res: res, hist: hist}, nil
			}
			nc, ncErr := run(sim.ExecNative)
			bc, bcErr := run(sim.ExecBytecode)
			if ncErr != nil || bcErr != nil {
				// Both backends execute the same dynamic operations, so a
				// budget blowout or compile failure must hit both the same
				// way; one-sided errors are divergences.
				if (ncErr == nil) != (bcErr == nil) {
					t.Fatalf("%s: one-sided error: native=%v bcode=%v\n%s", kind, ncErr, bcErr, src)
				}
				err := ncErr.Error()
				if strings.Contains(err, "budget") || kind == disamb.Naive {
					t.Skip() // does not compile or does not terminate
				}
				// NAIVE handled this program; a refinement must too.
				t.Fatalf("%s failed on a program NAIVE handled: %v\n%s", kind, ncErr, src)
			}
			if nc.res.Output != bc.res.Output {
				t.Fatalf("%s: output diverged\nnative: %q\nbcode:  %q\n%s", kind, nc.res.Output, bc.res.Output, src)
			}
			if nc.res.Exit != bc.res.Exit {
				t.Fatalf("%s: exit value diverged: native %v, bcode %v\n%s", kind, nc.res.Exit, bc.res.Exit, src)
			}
			if nc.res.Ops != bc.res.Ops || nc.res.Committed != bc.res.Committed {
				t.Fatalf("%s: op counts diverged: native %d/%d, bcode %d/%d\n%s",
					kind, nc.res.Committed, nc.res.Ops, bc.res.Committed, bc.res.Ops, src)
			}
			if !reflect.DeepEqual(nc.res.Times, bc.res.Times) {
				t.Fatalf("%s: cycle prices diverged: native %v, bcode %v\n%s", kind, nc.res.Times, bc.res.Times, src)
			}
			if !reflect.DeepEqual(nc.hist, bc.hist) {
				t.Fatalf("%s: trace histograms diverged (commit bits or exits)\nnative: %+v\nbcode:  %+v\n%s",
					kind, nc.hist, bc.hist, src)
			}
		}
	})
}
