package compile_test

import (
	"testing"

	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/ir"
	"specdis/internal/lang"
)

// progSink keeps the benchmarked programs live.
var progSink *ir.Program

// BenchmarkLower lowers every suite program to decision trees with NAIVE
// arcs. Parsing and checking happen once, outside the timer.
func BenchmarkLower(b *testing.B) {
	var checked []*lang.CheckedProgram
	for _, bm := range bench.Everything() {
		ast, err := lang.Parse(bm.Source)
		if err != nil {
			b.Fatal(err)
		}
		c, err := lang.Check(ast)
		if err != nil {
			b.Fatal(err)
		}
		checked = append(checked, c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range checked {
			prog, err := compile.Lower(c)
			if err != nil {
				b.Fatal(err)
			}
			progSink = prog
		}
	}
}
