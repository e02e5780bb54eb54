package spd_test

import (
	"testing"

	"specdis/internal/alias"
	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/disamb"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/spd"
)

// BenchmarkTransform times spd.Transform alone over the suite at memory
// latencies 2 and 6, as SPEC's preparation runs it: each benchmark is
// profiled once, and every iteration starts from a fresh clone carrying the
// profile's arc counters after static disambiguation, made outside the
// timer.
func BenchmarkTransform(b *testing.B) {
	type input struct {
		prog *ir.Program
		run  *disamb.Profiled
	}
	var inputs []input
	for _, bm := range bench.Everything() {
		prog, err := compile.Compile(bm.Source)
		if err != nil {
			b.Fatal(err)
		}
		run, err := disamb.ProfileRun(prog, disamb.Options{MemLat: 2})
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, input{prog, run})
	}
	params := spd.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			for _, memLat := range []int{2, 6} {
				b.StopTimer()
				prog := in.prog.Clone()
				if err := in.run.Profile.AnnotateArcs(prog); err != nil {
					b.Fatal(err)
				}
				alias.ResolveProgram(prog)
				lat := machine.Infinite(memLat).LatencyFunc()
				b.StartTimer()
				spd.Transform(prog, in.run.Profile, lat, params)
			}
		}
	}
}
