// Package specdis's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (§6) and run the ablations called out in
// DESIGN.md. Each benchmark prints the regenerated rows once (on the first
// iteration) and reports the cost of producing them, so
//
//	go test -bench=. -benchmem
//
// doubles as the full reproduction run.
package specdis_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/sched"
	"specdis/internal/sim"
	"specdis/internal/spd"
)

var printOnce sync.Map

// emit prints a section once per benchmark name across all iterations.
func emit(name string, f func()) {
	if _, dup := printOnce.LoadOrStore(name, true); !dup {
		f()
	}
}

// ---- The paper's tables and figures --------------------------------------

// benchReport runs one streaming renderer on a fresh runner per iteration
// and prints its output once.
func benchReport(b *testing.B, name string, stream func(*exper.Runner, io.Writer) error) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := stream(exper.New(), &buf); err != nil {
			b.Fatal(err)
		}
		emit(name, func() { os.Stdout.Write(buf.Bytes()) })
	}
}

func BenchmarkTable63(b *testing.B) { benchReport(b, "table63", (*exper.Runner).StreamTable63) }

func BenchmarkFigure62(b *testing.B) { benchReport(b, "fig62", (*exper.Runner).StreamFigure62) }

func BenchmarkFigure63(b *testing.B) { benchReport(b, "fig63", (*exper.Runner).StreamFigure63) }

func BenchmarkFigure64(b *testing.B) { benchReport(b, "fig64", (*exper.Runner).StreamFigure64) }

// ---- Ablations (DESIGN.md §5) ---------------------------------------------

// BenchmarkAblationForwarding compares SPEC with and without store-to-load
// forwarding on the alias path (design decision 2).
func BenchmarkAblationForwarding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lines := []string{"Ablation: store-to-load forwarding on the alias path (5 FU, 2-cyc memory)"}
		for _, name := range []string{"fft", "moment", "quick"} {
			bm := bench.ByName(name)
			var cyc [2]int64
			for j, fwd := range []bool{true, false} {
				params := spd.DefaultParams()
				params.Forwarding = fwd
				p, err := disamb.Prepare(bm.Source, disamb.Spec, 2, params)
				if err != nil {
					b.Fatal(err)
				}
				res, err := disamb.Measure(p, []machine.Model{machine.New(5, 2)})
				if err != nil {
					b.Fatal(err)
				}
				cyc[j] = res.Times[0]
			}
			lines = append(lines, fmt.Sprintf("  %-8s with=%8d cycles  without=%8d cycles (%+.2f%%)",
				name, cyc[0], cyc[1], 100*(float64(cyc[1])/float64(cyc[0])-1)))
		}
		emit("abl-fwd", func() {
			for _, l := range lines {
				fmt.Println(l)
			}
		})
	}
}

// BenchmarkAblationAliasProb sweeps the assumed alias probability of §5.3
// (the paper fixes it at 0.1; design decision 4).
func BenchmarkAblationAliasProb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lines := []string{"Ablation: assumed alias probability (fft, 5 FU, 6-cyc memory)"}
		bm := bench.ByName("fft")
		for _, q := range []float64{0.01, 0.1, 0.3, 0.5} {
			params := spd.DefaultParams()
			params.AssumedAliasProb = q
			p, err := disamb.Prepare(bm.Source, disamb.Spec, 6, params)
			if err != nil {
				b.Fatal(err)
			}
			res, err := disamb.Measure(p, []machine.Model{machine.New(5, 6)})
			if err != nil {
				b.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("  q=%.2f  applications=%2d  cycles=%d",
				q, len(p.SpD.Apps), res.Times[0]))
		}
		emit("abl-q", func() {
			for _, l := range lines {
				fmt.Println(l)
			}
		})
	}
}

// BenchmarkAblationMaxExpansion sweeps the code-growth bound of Figure 5-1
// (design decision 5).
func BenchmarkAblationMaxExpansion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lines := []string{"Ablation: MaxExpansion bound (smooft, 5 FU, 6-cyc memory)"}
		bm := bench.ByName("smooft")
		for _, mx := range []float64{1.0, 1.25, 1.5, 2.0, 3.0} {
			params := spd.DefaultParams()
			params.MaxExpansion = mx
			p, err := disamb.Prepare(bm.Source, disamb.Spec, 6, params)
			if err != nil {
				b.Fatal(err)
			}
			res, err := disamb.Measure(p, []machine.Model{machine.New(5, 6)})
			if err != nil {
				b.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("  MaxExpansion=%.2f  ops=%4d  applications=%2d  cycles=%d",
				mx, p.Prog.OpCount(), len(p.SpD.Apps), res.Times[0]))
		}
		emit("abl-mx", func() {
			for _, l := range lines {
				fmt.Println(l)
			}
		})
	}
}

// ---- Component micro-benchmarks -------------------------------------------

func BenchmarkCompileSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bm := range bench.All() {
			if _, err := compile.Compile(bm.Source); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkScheduleSuite(b *testing.B) {
	var trees []*ir.Tree
	for _, bm := range bench.All() {
		prog, err := compile.Compile(bm.Source)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range prog.Order {
			trees = append(trees, prog.Funcs[name].Trees...)
		}
	}
	m := machine.New(5, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trees {
			sched.Tree(tr, m)
		}
	}
}

func BenchmarkSimulateFFT(b *testing.B) {
	prog, err := compile.Compile(bench.ByName("fft").Source)
	if err != nil {
		b.Fatal(err)
	}
	lat := machine.Infinite(2).LatencyFunc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &sim.Runner{Prog: prog, SemLat: lat}
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpDTransformSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bm := range bench.All() {
			if _, err := disamb.Prepare(bm.Source, disamb.Spec, 2, spd.DefaultParams()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtensionGrafting measures the paper's §7 grafting extension on
// the tree-starved integer benchmarks: tree growth exposes more SpD
// opportunities and shortens cycle counts.
func BenchmarkExtensionGrafting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.New()
		rows, err := r.ExtGrafting(6, 5)
		if err != nil {
			b.Fatal(err)
		}
		emit("ext-graft", func() { exper.RenderExtensions(os.Stdout, rows, nil) })
	}
}

// BenchmarkExtensionCombined compares §7's combined multi-alias speculation
// (one duplicate for the all-no-alias outcome) against the one-at-a-time
// transform: code growth per disambiguated pair.
func BenchmarkExtensionCombined(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exper.New()
		rows, err := r.ExtCombined(6)
		if err != nil {
			b.Fatal(err)
		}
		emit("ext-comb", func() { exper.RenderExtensions(os.Stdout, nil, rows) })
	}
}
