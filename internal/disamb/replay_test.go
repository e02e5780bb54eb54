package disamb_test

import (
	"reflect"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/disamb"
	"specdis/internal/machine"
	"specdis/internal/spd"
)

func stdModels(memLat int) []machine.Model {
	models := []machine.Model{machine.Infinite(memLat)}
	for w := 1; w <= 8; w++ {
		models = append(models, machine.New(w, memLat))
	}
	return models
}

// TestReplayMeasureMatchesMeasure checks the full pipeline-level equivalence
// on the real benchmarks: for every disambiguator, ReplayMeasure on a
// captured trace reports the same Times as an interpreting Measure.
func TestReplayMeasureMatchesMeasure(t *testing.T) {
	params := spd.DefaultParams()
	for _, bm := range bench.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			for _, kind := range disamb.Kinds {
				p, err := disamb.PrepareOpts(bm.Source, disamb.Options{
					Kind: kind, MemLat: 2, SpD: params,
					Verify: true, // the replay differential doubles as a verifier oracle
				})
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				tr, err := disamb.Capture(p)
				if err != nil {
					t.Fatalf("%s capture: %v", kind, err)
				}
				models := stdModels(2)
				want, err := disamb.Measure(p, models)
				if err != nil {
					t.Fatalf("%s measure: %v", kind, err)
				}
				got, err := disamb.ReplayMeasure(p, models, tr)
				if err != nil {
					t.Fatalf("%s replay: %v", kind, err)
				}
				if !reflect.DeepEqual(got.Times, want.Times) {
					t.Fatalf("%s: replay times %v, interp times %v", kind, got.Times, want.Times)
				}
				if got.Ops != want.Ops || got.Committed != want.Committed {
					t.Fatalf("%s: replay ops/committed %d/%d, interp %d/%d",
						kind, got.Ops, got.Committed, want.Ops, want.Committed)
				}
			}
		})
	}
}

// TestRandomProgramsReplayEquivalence is the differential fuzzer for the
// replay backend: on random programs, across all four pipelines and several
// machine sets, replay pricing must match interpretation bit for bit — SPEC
// from its own capture (its profiling stream predates the transform), the
// arc-only pipelines also from the trace of the program's shared profiling
// run (disamb.ProfileRun).
func TestRandomProgramsReplayEquivalence(t *testing.T) {
	params := spd.DefaultParams()
	params.MinGain = 0.01 // transform aggressively to stress the machinery
	nSeeds := int64(25)
	if testing.Short() {
		nSeeds = 6
	}
	models := []machine.Model{machine.Infinite(2), machine.New(2, 6), machine.New(6, 2)}
	for seed := int64(1); seed <= nSeeds; seed++ {
		src := newProgGen(seed).generate()
		base, err := compile.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		shared, err := disamb.ProfileRun(base, disamb.Options{MemLat: 2})
		if err != nil {
			t.Fatalf("seed %d profiling run: %v\n%s", seed, err, src)
		}
		for _, kind := range disamb.Kinds {
			p, err := disamb.PrepareFrom(shared, disamb.Options{
				Kind: kind, MemLat: 2, SpD: params, Prog: base.Clone(),
			})
			if err != nil {
				t.Fatalf("seed %d %s: %v\n%s", seed, kind, err, src)
			}
			tr, err := disamb.Capture(p)
			if err != nil {
				t.Fatalf("seed %d %s capture: %v\n%s", seed, kind, err, src)
			}
			want, err := disamb.Measure(p, models)
			if err != nil {
				t.Fatalf("seed %d %s: %v\n%s", seed, kind, err, src)
			}
			got, err := disamb.ReplayMeasure(p, models, tr)
			if err != nil {
				t.Fatalf("seed %d %s replay: %v\n%s", seed, kind, err, src)
			}
			if !reflect.DeepEqual(got.Times, want.Times) || got.Ops != want.Ops {
				t.Fatalf("seed %d %s: replay %v ops %d, interp %v ops %d\n%s",
					seed, kind, got.Times, got.Ops, want.Times, want.Ops, src)
			}
			if !kind.LatencySensitive() {
				got, err := disamb.ReplayMeasure(p, models, shared.Trace)
				if err != nil {
					t.Fatalf("seed %d %s shared replay: %v\n%s", seed, kind, err, src)
				}
				if !reflect.DeepEqual(got.Times, want.Times) {
					t.Fatalf("seed %d %s: shared-trace replay %v, interp %v\n%s",
						seed, kind, got.Times, want.Times, src)
				}
			}
		}
	}
}
