package sched_test

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/sched"
)

// allWidths are the widths one Measure cell prices at one latency: the
// infinite machine and 1–8 FUs.
var allWidths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8}

// checkComps requires c's tables for g at allWidths to be FromGraph's, issue
// for issue: Comp is Issue plus the op's latency, so equal tables are equal
// issue cycles.
func checkComps(t *testing.T, c *sched.Cache, g *ir.DepGraph, what string) {
	t.Helper()
	got := c.Comps(g, allWidths)
	for k, n := range allWidths {
		want := sched.FromGraph(g, n)
		for i := range g.Tree.Ops {
			if issue := got[k][i] - int64(g.Latency(i)); issue != want.Issue[i] {
				t.Fatalf("%s at width %d: op %d issues at %d, FromGraph at %d", what, n, i, issue, want.Issue[i])
			}
		}
	}
}

// TestCacheConcurrentLookups looks the compiled suite's graphs at both
// latencies up from four goroutines at once, each starting at a different
// graph: every result, whether scheduled or shared, must be FromGraph's at
// every width, and each distinct key must be scheduled exactly once, with
// the list runs a sequential pass takes. The sequential pass must find
// repeated graphs and saturate widths, or the test shows nothing.
func TestCacheConcurrentLookups(t *testing.T) {
	var graphs []*ir.DepGraph
	var want [][][]int64 // [graph][width]: FromGraph's completion cycles
	seq := sched.NewCache()
	for _, memLat := range []int{2, 6} {
		for _, tr := range allTrees(t) {
			g := ir.BuildDepGraph(tr, machine.Infinite(memLat).LatencyFunc())
			var comps [][]int64
			for _, n := range allWidths {
				comps = append(comps, sched.FromGraph(g, n).Comp)
			}
			graphs, want = append(graphs, g), append(want, comps)
			seq.Comps(g, allWidths)
		}
	}
	c := sched.NewCache()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range graphs {
				i := (k + w*len(graphs)/4) % len(graphs)
				for j, comp := range c.Comps(graphs[i], allWidths) {
					if !slices.Equal(comp, want[i][j]) {
						t.Errorf("%s on %d FUs: cached schedule differs from FromGraph's", graphs[i].Tree.Name, allWidths[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	got, ref := c.Stats(), seq.Stats()
	if ref.Distinct >= ref.Graphs || ref.ListRuns >= 8*ref.Distinct {
		t.Errorf("no sharing or no width saturation: %+v", ref)
	}
	if got.Graphs != 4*ref.Graphs || got.Distinct != ref.Distinct || got.ListRuns != ref.ListRuns {
		t.Errorf("concurrent counters %+v, want four times the graphs of a sequential pass %+v and its distinct keys and list runs", got, ref)
	}
}

// pairTree is a tree whose 1-FU schedule turns on every input of the key:
// c0 and c1 compete for the slot at cycle 0, and c0 wins on height (it
// feeds a2) unless c1 is an exit.
//
//	c0: const -> r0
//	c1: const -> r1
//	a2: add r0 r0 -> r2
//	x3: exit ret r2
func pairTree() *ir.Tree {
	fn := &ir.Function{Name: "pair"}
	tr := &ir.Tree{Fn: fn, Name: "pair.t0"}
	tr.NewBlock(-1, ir.NoReg, false)
	c0 := tr.NewOp(ir.OpConst, nil, fn.NewReg())
	tr.NewOp(ir.OpConst, nil, fn.NewReg())
	a2 := tr.NewOp(ir.OpAdd, []ir.Reg{c0.Dest, c0.Dest}, fn.NewReg())
	x3 := tr.NewOp(ir.OpExit, []ir.Reg{a2.Dest}, ir.NoReg)
	x3.Exit = ir.ExitRet
	return tr
}

// cloneGraph copies g's edge lists, so one edge of the copy can change.
func cloneGraph(g *ir.DepGraph) *ir.DepGraph {
	c := *g
	c.Succ, c.Pred = make([][]ir.DepEdge, len(g.Succ)), make([][]ir.DepEdge, len(g.Pred))
	for i := range g.Succ {
		c.Succ[i] = slices.Clone(g.Succ[i])
		c.Pred[i] = slices.Clone(g.Pred[i])
	}
	return &c
}

// TestCacheKeepsNearGraphsApart builds pairs of graphs that differ in one
// thing the list scheduler reads: one edge's delay, one op's latency, or
// one op's exit flag. Each pair's FromGraph schedules differ, and a cache
// that has scheduled one graph of a pair must still return the other's own
// schedules.
func TestCacheKeepsNearGraphsApart(t *testing.T) {
	lat := func(extra map[int]int) ir.LatencyFunc {
		return func(op *ir.Op) int { return 1 + extra[op.Seq] }
	}
	tr := pairTree()
	base := ir.BuildDepGraph(tr, lat(nil))

	delay := cloneGraph(base) // c0 -> a2 waits 3 cycles, not 1
	delay.Succ[0][0].Delay = 3
	delay.Pred[2][0].Delay = 3

	// c1's latency: it feeds nothing, so only its own completion moves.
	latency := ir.BuildDepGraph(tr, lat(map[int]int{1: 4}))

	exitTree := *tr // c1 as an exit: same edges and latencies
	exitTree.Ops = slices.Clone(tr.Ops)
	c1 := *tr.Ops[1]
	c1.Kind = ir.OpExit
	exitTree.Ops[1] = &c1
	exit := cloneGraph(base)
	exit.Tree = &exitTree

	for _, pair := range []struct {
		name string
		a, b *ir.DepGraph
	}{{"edge delay", base, delay}, {"op latency", base, latency}, {"exit flag", base, exit}} {
		if slices.Equal(sched.FromGraph(pair.a, 1).Comp, sched.FromGraph(pair.b, 1).Comp) {
			t.Fatalf("%s: the pair schedules alike on 1 FU, so it cannot tell keys apart", pair.name)
		}
		c := sched.NewCache()
		checkComps(t, c, pair.a, pair.name+", first graph")
		checkComps(t, c, pair.b, pair.name+", second graph")
		if st := c.Stats(); st.Distinct != 2 {
			t.Errorf("%s: %d distinct keys, want 2", pair.name, st.Distinct)
		}
	}
}

// TestCacheRecoversFromPanic holds a key in flight while a second caller
// waits on it, then makes the scheduling panic (the graph has a dependence
// cycle). The panic must reach the first caller, and the waiter must wake
// and schedule the key itself, reaching its own panic, instead of waiting
// forever or reading a half-built entry.
func TestCacheRecoversFromPanic(t *testing.T) {
	cyclic := cloneGraph(ir.BuildDepGraph(pairTree(), machine.Infinite(2).LatencyFunc()))
	cyclic.Succ[3] = append(cyclic.Succ[3], ir.DepEdge{To: 0}) // exit -> c0
	cyclic.Pred[0] = append(cyclic.Pred[0], ir.DepEdge{To: 3})

	c := sched.NewCache()
	leading, waiting, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var lead, wait sync.Once
	sched.SetFlightHook(c, func(leader bool) {
		if !leader {
			wait.Do(func() { close(waiting) })
			return
		}
		lead.Do(func() { // hold the first leader until the waiter waits
			close(leading)
			<-release
		})
	})

	panics := make(chan any, 2)
	call := func() {
		defer func() { panics <- recover() }()
		c.Comps(cyclic, allWidths)
	}
	go call()
	<-leading
	go call()
	<-waiting
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case p := <-panics:
			if msg, _ := p.(string); !strings.Contains(msg, "dependence cycle") {
				t.Fatalf("a caller recovered %v, want the list scheduler's dependence-cycle panic", p)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a caller is still waiting on a key whose scheduling panicked")
		}
	}
	if st := c.Stats(); st.Distinct != 0 {
		t.Errorf("a panicked key counts as scheduled: %+v", st)
	}
	checkComps(t, c, ir.BuildDepGraph(pairTree(), machine.Infinite(2).LatencyFunc()), "after the panic")
}
