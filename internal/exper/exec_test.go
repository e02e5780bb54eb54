package exper_test

import (
	"strings"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/sim"
)

// execRunner returns a single-benchmark runner on the given backend, forced
// onto the interpreting measurement path so every cell actually executes.
func execRunner(mode sim.ExecMode) (*exper.Runner, *bench.Benchmark) {
	b := bench.ByName("moment")
	r := exper.New()
	r.Benchmarks = []*bench.Benchmark{b}
	r.TraceReplay = false
	r.Exec = mode
	return r, b
}

// TestSharedCompileCacheHits proves the runner-wide content-addressed caches
// pay off across cells: pipelines that only touch arcs (NAIVE, STATIC,
// PERFECT) execute identical trees, so after the first cell compiles them,
// later cells hit instead of recompiling. This is the regression test for
// the trees_compiled ≫ cache_hits = 0 bug, on both compiled backends.
func TestSharedCompileCacheHits(t *testing.T) {
	for _, mode := range []sim.ExecMode{sim.ExecBytecode, sim.ExecNative} {
		t.Run(mode.String(), func(t *testing.T) {
			r, b := execRunner(mode)
			for _, kind := range []disamb.Kind{disamb.Naive, disamb.Static, disamb.Perfect} {
				if _, err := r.Measure(b, kind, 2); err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
			}
			st := r.Stats()
			if st.BCodeCompiled == 0 {
				t.Fatal("no trees compiled: the cells did not run on a compiled backend")
			}
			if st.BCodeCacheHits == 0 {
				t.Fatalf("cache hits = 0 across %d compilations: the shared cache is not shared", st.BCodeCompiled)
			}
			// Arc-only pipelines share every tree body, so hits must
			// dominate: at most one compilation per distinct tree.
			if st.BCodeCacheHits < st.BCodeCompiled {
				t.Errorf("hits (%d) < compiles (%d): identical clones are recompiling", st.BCodeCacheHits, st.BCodeCompiled)
			}
		})
	}
}

// TestExecModesProduceIdenticalReports renders Figure 6-2 under all three
// execution backends and requires byte-identical output — the exper-layer
// half of the CI byte-identity matrix.
func TestExecModesProduceIdenticalReports(t *testing.T) {
	render := func(mode sim.ExecMode) string {
		r, _ := execRunner(mode)
		var sb strings.Builder
		if err := r.StreamFigure62(&sb); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if st := r.Stats(); st.CellFailures != 0 || st.BCodeFallbacks != 0 || st.NCodeFallbacks != 0 {
			t.Fatalf("%v: clean run degraded: %+v", mode, st)
		}
		return sb.String()
	}
	ref := render(sim.ExecBytecode)
	for _, mode := range []sim.ExecMode{sim.ExecNative, sim.ExecTree} {
		if got := render(mode); got != ref {
			t.Errorf("%v report diverged from bytecode:\n%s\n--- vs ---\n%s", mode, got, ref)
		}
	}
}
