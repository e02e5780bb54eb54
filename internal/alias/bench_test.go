package alias_test

import (
	"testing"

	"specdis/internal/alias"
	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/ir"
)

// statsSink keeps the benchmarked results live.
var statsSink alias.Stats

// BenchmarkResolveProgram runs STATIC's alias tests over every suite
// program. Each iteration resolves fresh clones of the compiled programs,
// made outside the timer, since resolving removes arcs.
func BenchmarkResolveProgram(b *testing.B) {
	var progs []*ir.Program
	for _, bm := range bench.Everything() {
		p, err := compile.Compile(bm.Source)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	clones := make([]*ir.Program, len(progs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, p := range progs {
			clones[j] = p.Clone()
		}
		b.StartTimer()
		for _, p := range clones {
			statsSink = alias.ResolveProgram(p)
		}
	}
}
