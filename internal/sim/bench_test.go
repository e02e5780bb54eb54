package sim_test

import (
	"fmt"
	"testing"

	"specdis/internal/bcode"
	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/ncode"
	"specdis/internal/sim"
	"specdis/internal/trace"
)

// benchSetup compiles the fft benchmark, the shared fixture of the
// execution benchmarks.
func benchSetup(b *testing.B) *ir.Program {
	b.Helper()
	prog, err := compile.Compile(bench.ByName("fft").Source)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// benchProfile times full profiling runs: execution with its per-op commit
// and address sampling, plus the Runner's fold of those samples into the
// profile.
func benchProfile(b *testing.B, mode sim.ExecMode) {
	prog := benchSetup(b)
	bcCache := bcode.NewCache(nil)
	ncCache := ncode.NewCache(nil)
	shapes := sim.NewShapeCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &sim.Runner{
			Prog:   prog,
			SemLat: machine.Infinite(2).LatencyFunc(),
			Prof:   sim.NewProfile(),
			Exec:   mode,
			BCode:  bcCache,
			NCode:  ncCache,
			Shapes: shapes,
		}
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCapture times full trace-capture runs: the interpretation a timed
// measurement needs when no shared or derived trace serves it. The engines
// sample commits and addresses here too; only the fold into a profile is
// skipped.
func benchCapture(b *testing.B, mode sim.ExecMode) {
	prog := benchSetup(b)
	bcCache := bcode.NewCache(nil)
	ncCache := ncode.NewCache(nil)
	shapes := sim.NewShapeCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &sim.Runner{
			Prog:   prog,
			SemLat: machine.Infinite(2).LatencyFunc(),
			Rec:    trace.NewRecorder(),
			Exec:   mode,
			BCode:  bcCache,
			NCode:  ncCache,
			Shapes: shapes,
		}
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileTree times a profiling run (the capture-bound cell class)
// on the reference tree walker.
func BenchmarkProfileTree(b *testing.B) { benchProfile(b, sim.ExecTree) }

// BenchmarkProfileBytecode is BenchmarkProfileTree on the bytecode engine.
func BenchmarkProfileBytecode(b *testing.B) { benchProfile(b, sim.ExecBytecode) }

// BenchmarkProfileNative is BenchmarkProfileTree on the native tier.
func BenchmarkProfileNative(b *testing.B) { benchProfile(b, sim.ExecNative) }

// BenchmarkCaptureTree times a trace-capture run (the capture-bound cell
// class) on the reference tree walker.
func BenchmarkCaptureTree(b *testing.B) { benchCapture(b, sim.ExecTree) }

// BenchmarkCaptureBytecode is BenchmarkCaptureTree on the bytecode engine.
func BenchmarkCaptureBytecode(b *testing.B) { benchCapture(b, sim.ExecBytecode) }

// BenchmarkCaptureNative is BenchmarkCaptureTree on the native tier.
func BenchmarkCaptureNative(b *testing.B) { benchCapture(b, sim.ExecNative) }

// BenchmarkTierUpThreshold sweeps the adaptive-tiering hot threshold on a
// cold-cache capture run: every iteration starts with fresh compiled-code
// caches, so the native compile cost of every tree that crosses the
// threshold is inside the measurement. threshold=0 compiles every executed
// tree eagerly; the huge threshold never promotes (all-bytecode with native
// selected); the middle settings show the adaptive tradeoff spdbench's
// -tierup default rides.
func BenchmarkTierUpThreshold(b *testing.B) {
	prog := benchSetup(b)
	shapes := sim.NewShapeCache()
	for _, tu := range []int64{0, 1, 32, 1 << 30} {
		name := fmt.Sprintf("tierup=%d", tu)
		if tu == 1<<30 {
			name = "tierup=never"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := &sim.Runner{
					Prog:   prog,
					SemLat: machine.Infinite(2).LatencyFunc(),
					Rec:    trace.NewRecorder(),
					Exec:   sim.ExecNative,
					TierUp: tu,
					BCode:  bcode.NewCache(nil),
					NCode:  ncode.NewCache(nil),
					Shapes: shapes,
				}
				if _, err := r.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBytecodeCompile times lowering every tree of the fft benchmark to
// bytecode (one whole-program compile per iteration).
func BenchmarkBytecodeCompile(b *testing.B) {
	prog := benchSetup(b)
	prog.IndexTrees()
	var trees []*ir.Tree
	for _, name := range prog.Order {
		trees = append(trees, prog.Funcs[name].Trees...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range trees {
			if _, err := bcode.Compile(t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkNativeCompile times lowering every tree of the fft benchmark to
// a native closure chain (one whole-program compile per iteration, through
// the bytecode stream and the fusion pass).
func BenchmarkNativeCompile(b *testing.B) {
	prog := benchSetup(b)
	prog.IndexTrees()
	var trees []*ir.Tree
	for _, name := range prog.Order {
		trees = append(trees, prog.Funcs[name].Trees...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, t := range trees {
			if _, err := ncode.Compile(t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCallSteadyState pins the allocation behavior of the steady-state
// call loop: after the first run warms the frame/arg pools to the program's
// peak call depth, further runs of the recursive fixture must not allocate
// frames at all (see TestCallLoopAllocs).
func BenchmarkCallSteadyState(b *testing.B) {
	prog := benchSetup(b)
	r := &sim.Runner{Prog: prog, SemLat: machine.Infinite(2).LatencyFunc()}
	if _, err := r.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
