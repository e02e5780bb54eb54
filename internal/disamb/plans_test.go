package disamb_test

import (
	"fmt"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/disamb"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/sched"
	"specdis/internal/sim"
	"specdis/internal/spd"
	"specdis/internal/trace"
)

// planWidths are the widths Plans schedules one latency's graphs at: the
// infinite machine and 1–8 FUs.
var planWidths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8}

// checkCachedSchedules looks every tree of prog up in c at memLat and
// requires each returned table to be sched.FromGraph's, issue for issue
// (a completion cycle is the issue cycle plus the op's latency). It returns
// the number of graphs checked.
func checkCachedSchedules(t *testing.T, c *sched.Cache, prog *ir.Program, memLat int, what string) int {
	t.Helper()
	n := 0
	for _, name := range prog.Order {
		for _, tr := range prog.Funcs[name].Trees {
			g := ir.BuildDepGraph(tr, machine.Infinite(memLat).LatencyFunc())
			got := c.Comps(g, planWidths)
			for k, w := range planWidths {
				want := sched.FromGraph(g, w)
				for i := range tr.Ops {
					if issue := got[k][i] - int64(g.Latency(i)); issue != want.Issue[i] {
						t.Fatalf("%s m%d %s on %d FUs: op %d issues at %d, FromGraph at %d",
							what, memLat, tr.Name, w, i, issue, want.Issue[i])
					}
				}
			}
			n++
		}
	}
	return n
}

// preparedPipelines prepares prog under all four pipelines at memLat from
// one shared profiling run. It returns nil when the program does not run
// under maxOps.
func preparedPipelines(t testing.TB, prog *ir.Program, memLat int, params spd.Params, maxOps int64) []*disamb.Prepared {
	t.Helper()
	run, err := disamb.ProfileRun(prog, disamb.Options{MemLat: memLat, Interp: disamb.Interp{MaxOps: maxOps}})
	if err != nil {
		return nil
	}
	var out []*disamb.Prepared
	for _, kind := range disamb.Kinds {
		p, err := disamb.PrepareFrom(run, disamb.Options{Kind: kind, MemLat: memLat, SpD: params, Interp: disamb.Interp{MaxOps: maxOps}, Prog: prog.Clone()})
		if err != nil {
			t.Fatalf("%s m%d: %v", kind, memLat, err)
		}
		out = append(out, p)
	}
	return out
}

// TestCachedSchedulesMatchFromGraph is the schedule cache's differential
// test: every tree of every pipeline's program, on the suite and on 300
// generated programs at both latencies, is looked up in one shared cache,
// as a runner's cells do, and every width's schedule must equal FromGraph's.
// A lookup that schedules saturates widths (sched.Cache); a hit returns
// tables another graph of equal content produced.
func TestCachedSchedulesMatchFromGraph(t *testing.T) {
	c := sched.NewCache()
	graphs := 0
	for _, b := range bench.All() {
		prog, err := compile.Compile(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, memLat := range []int{2, 6} {
			for _, p := range preparedPipelines(t, prog, memLat, spd.DefaultParams(), 0) {
				graphs += checkCachedSchedules(t, c, p.Prog, memLat, b.Name+"/"+p.Kind.String())
			}
		}
	}
	n := int64(300)
	if testing.Short() {
		n = 40
	}
	programs := 0
	for seed := int64(1); seed <= n; seed++ {
		src := newProgGen(seed).generate()
		prog, err := compile.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ran := false
		for _, memLat := range []int{2, 6} {
			for _, p := range preparedPipelines(t, prog, memLat, spd.DefaultParams(), 5_000_000) {
				graphs += checkCachedSchedules(t, c, p.Prog, memLat, fmt.Sprintf("seed %d/%s", seed, p.Kind))
				ran = true
			}
		}
		if ran {
			programs++
		}
	}
	if programs < int(n)*9/10 {
		t.Fatalf("only %d of %d generated programs ran", programs, n)
	}
	st := c.Stats()
	if st.Distinct >= st.Graphs || st.ListRuns >= 8*st.Distinct {
		t.Errorf("no sharing or no saturation: %+v", st)
	}
	t.Logf("%d graphs of %d programs: %+v", graphs, programs, st)
}

// cellModels returns a measurement cell's machine models at the memory
// latencies lats: the infinite machine and 1–8 FUs at each.
func cellModels(lats ...int) []machine.Model {
	var ms []machine.Model
	for _, lat := range lats {
		ms = append(ms, machine.Infinite(lat))
		for w := 1; w <= 8; w++ {
			ms = append(ms, machine.New(w, lat))
		}
	}
	return ms
}

// BenchmarkPlans times Plans over every measurement cell of the suite, as
// one cold evaluation builds them: NAIVE, STATIC and PERFECT under both
// latencies' 18 models, and SPEC under each latency's 9. The programs are
// prepared outside the timer; each iteration shares one fresh schedule
// cache across its cells, as a runner does.
func BenchmarkPlans(b *testing.B) {
	type cell struct {
		p      *disamb.Prepared
		models []machine.Model
	}
	var cells []cell
	for _, bm := range bench.All() {
		prog, err := compile.Compile(bm.Source)
		if err != nil {
			b.Fatal(err)
		}
		for _, memLat := range []int{2, 6} {
			for _, p := range preparedPipelines(b, prog, memLat, spd.DefaultParams(), 0) {
				switch {
				case p.Kind == disamb.Spec:
					cells = append(cells, cell{p, cellModels(memLat)})
				case memLat == 2: // one merged cell for both latencies
					cells = append(cells, cell{p, cellModels(2, 6)})
				}
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := sched.NewCache()
		for _, cl := range cells {
			cl.p.Sched = c
			disamb.Plans(cl.p, cl.models)
		}
	}
}

// BenchmarkReplay times the Replay calls of every measurement cell of the
// suite, as one cold evaluation makes them: NAIVE, STATIC and PERFECT
// replay their program's profiling run under both latencies' 18 models, and
// SPEC its derived trace under each latency's 9. Preparations, traces and
// plans are built outside the timer.
func BenchmarkReplay(b *testing.B) {
	type cell struct {
		rp *sim.Replayer
		tr *trace.Trace
	}
	var cells []cell
	for _, bm := range bench.All() {
		prog, err := compile.Compile(bm.Source)
		if err != nil {
			b.Fatal(err)
		}
		run, err := disamb.ProfileRun(prog, disamb.Options{MemLat: 2})
		if err != nil {
			b.Fatal(err)
		}
		for _, memLat := range []int{2, 6} {
			for _, kind := range disamb.Kinds {
				if kind != disamb.Spec && memLat != 2 {
					continue // one merged cell for both latencies
				}
				p, err := disamb.PrepareFrom(run, disamb.Options{Kind: kind, MemLat: memLat, SpD: spd.DefaultParams(), Prog: prog.Clone()})
				if err != nil {
					b.Fatal(err)
				}
				tr, models := run.Trace, cellModels(2, 6)
				if kind == disamb.Spec {
					if tr, err = disamb.Derive(p, run); err != nil {
						b.Fatal(err)
					}
					models = cellModels(memLat)
				}
				cells = append(cells, cell{&sim.Replayer{Prog: p.Prog, Plans: disamb.Plans(p, models)}, tr})
			}
		}
	}
	if len(cells) != 55 {
		b.Fatalf("%d measurement cells, want 55", len(cells))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			if _, err := c.rp.Replay(c.tr); err != nil {
				b.Fatal(err)
			}
		}
	}
}
