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

// FuzzBytecodeVsTree is the differential fuzzer for the bytecode execution
// engine: every MiniC program that compiles must behave identically on the
// bytecode executor and the reference tree walker, under every disambiguator
// pipeline. "Identically" is checked at full strength — printed output,
// main's exit value, dynamic operation and commit counts, the cycle price
// under every machine model, and the captured execution trace (per-tree
// commit-bit patterns, taken exits and call sequence, compared through the
// trace histogram). Any divergence is a crash; inputs that fail to compile
// or blow the small operation budget are skipped.
func FuzzBytecodeVsTree(f *testing.F) {
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
				if mode == sim.ExecBytecode {
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
			bc, bcErr := run(sim.ExecBytecode)
			tw, twErr := run(sim.ExecTree)
			if bcErr != nil || twErr != nil {
				// Both backends execute the same dynamic operations, so a
				// budget blowout or compile failure must hit both the same
				// way; one-sided errors are divergences.
				if (bcErr == nil) != (twErr == nil) {
					t.Fatalf("%s: one-sided error: bcode=%v tree=%v\n%s", kind, bcErr, twErr, src)
				}
				err := bcErr.Error()
				if strings.Contains(err, "budget") || kind == disamb.Naive {
					t.Skip() // does not compile or does not terminate
				}
				// NAIVE handled this program; a refinement must too.
				t.Fatalf("%s failed on a program NAIVE handled: %v\n%s", kind, bcErr, src)
			}
			if bc.res.Output != tw.res.Output {
				t.Fatalf("%s: output diverged\nbcode: %q\ntree:  %q\n%s", kind, bc.res.Output, tw.res.Output, src)
			}
			if bc.res.Exit != tw.res.Exit {
				t.Fatalf("%s: exit value diverged: bcode %v, tree %v\n%s", kind, bc.res.Exit, tw.res.Exit, src)
			}
			if bc.res.Ops != tw.res.Ops || bc.res.Committed != tw.res.Committed {
				t.Fatalf("%s: op counts diverged: bcode %d/%d, tree %d/%d\n%s",
					kind, bc.res.Committed, bc.res.Ops, tw.res.Committed, tw.res.Ops, src)
			}
			if !reflect.DeepEqual(bc.res.Times, tw.res.Times) {
				t.Fatalf("%s: cycle prices diverged: bcode %v, tree %v\n%s", kind, bc.res.Times, tw.res.Times, src)
			}
			if !reflect.DeepEqual(bc.hist, tw.hist) {
				t.Fatalf("%s: trace histograms diverged (commit bits or exits)\nbcode: %+v\ntree:  %+v\n%s",
					kind, bc.hist, tw.hist, src)
			}
		}
	})
}
