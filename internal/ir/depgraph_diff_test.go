package ir_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/disamb"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/spd"
)

// suiteTree is one tree of the benchmark corpus with the latency model its
// graphs are built under.
type suiteTree struct {
	name string
	t    *ir.Tree
	lat  ir.LatencyFunc
}

var (
	suiteOnce  sync.Once
	suiteTrees []suiteTree
	suiteErr   error
)

// corpus returns every tree of every suite program, as compiled (with its
// conservative arcs) and after SPEC's transform, each at memory latencies 2
// and 6.
func corpus(tb testing.TB) []suiteTree {
	suiteOnce.Do(func() {
		for _, b := range bench.Everything() {
			for _, memLat := range []int{2, 6} {
				lat := machine.Infinite(memLat).LatencyFunc()
				base, err := compile.Compile(b.Source)
				if err != nil {
					suiteErr = err
					return
				}
				p, err := disamb.Prepare(b.Source, disamb.Spec, memLat, spd.DefaultParams())
				if err != nil {
					suiteErr = err
					return
				}
				for _, stage := range []struct {
					name string
					prog *ir.Program
				}{{"compiled", base}, {"spec", p.Prog}} {
					for _, name := range stage.prog.SortedFuncNames() {
						for _, t := range stage.prog.Funcs[name].Trees {
							suiteTrees = append(suiteTrees, suiteTree{fmt.Sprintf("%s/%s/m%d/%s", b.Name, stage.name, memLat, t.Name), t, lat})
						}
					}
				}
			}
		}
	})
	if suiteErr != nil {
		tb.Fatal(suiteErr)
	}
	return suiteTrees
}

// TestDepGraphMatchesReference pins BuildDepGraph and BuildRegDepGraph to
// the reference backward scan: the same edges, in the same order, in every
// Succ and Pred list of every suite tree.
func TestDepGraphMatchesReference(t *testing.T) {
	arcs := 0
	for _, st := range corpus(t) {
		arcs += len(st.t.Arcs)
		for _, withArcs := range []bool{false, true} {
			got := ir.BuildRegDepGraph(st.t, st.lat)
			if withArcs {
				got = ir.BuildDepGraph(st.t, st.lat)
			}
			want := ir.RefBuildDepGraph(st.t, st.lat, withArcs)
			if !reflect.DeepEqual(got.Succ, want.Succ) || !reflect.DeepEqual(got.Pred, want.Pred) {
				t.Fatalf("%s (arcs %v): graph differs from the reference\ngot  succ %v\nwant succ %v\ngot  pred %v\nwant pred %v",
					st.name, withArcs, got.Succ, want.Succ, got.Pred, want.Pred)
			}
		}
	}
	if arcs == 0 {
		t.Fatal("corpus has no memory arcs")
	}
}

// TestDepGraphListsDoNotAlias checks that appending to one adjacency list
// never writes into another: the lists share one backing array.
func TestDepGraphListsDoNotAlias(t *testing.T) {
	for _, st := range corpus(t)[:40] {
		g := ir.BuildDepGraph(st.t, st.lat)
		want := ir.RefBuildDepGraph(st.t, st.lat, true)
		for i := range g.Succ {
			_ = append(g.Succ[i], ir.DepEdge{To: -1})
			_ = append(g.Pred[i], ir.DepEdge{To: -1})
		}
		if !reflect.DeepEqual(g.Succ, want.Succ) || !reflect.DeepEqual(g.Pred, want.Pred) {
			t.Fatalf("%s: appending to one list changed another", st.name)
		}
	}
}

// graphSink keeps the benchmarked graphs live.
var graphSink *ir.DepGraph

// BenchmarkBuildDepGraph builds the dependence graph of every suite tree,
// as compiled and after SPEC at both memory latencies: full graphs, and the
// register skeletons the SpD heuristic prices over.
func BenchmarkBuildDepGraph(b *testing.B) {
	trees := corpus(b)
	for _, c := range []struct {
		name  string
		build func(*ir.Tree, ir.LatencyFunc) *ir.DepGraph
	}{{"full", ir.BuildDepGraph}, {"skeleton", ir.BuildRegDepGraph}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, st := range trees {
					graphSink = c.build(st.t, st.lat)
				}
			}
		})
	}
}
