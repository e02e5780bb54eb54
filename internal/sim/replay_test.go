package sim_test

import (
	"errors"
	"reflect"
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

// stdModels returns the nine standard machine models at one memory latency:
// the infinite machine and widths 1 through 8.
func stdModels(memLat int) []machine.Model {
	models := []machine.Model{machine.Infinite(memLat)}
	for w := 1; w <= 8; w++ {
		models = append(models, machine.New(w, memLat))
	}
	return models
}

// stdPlans builds the nine standard machine models' plans for prog.
func stdPlans(t testing.TB, prog *ir.Program, memLat int) []*sim.Plan {
	t.Helper()
	models := stdModels(memLat)
	plans := make([]*sim.Plan, len(models))
	for i, m := range models {
		plans[i] = sim.NewPlan(m.Name)
	}
	for _, name := range prog.Order {
		for _, t := range prog.Funcs[name].Trees {
			g := ir.BuildDepGraph(t, machine.Infinite(memLat).LatencyFunc())
			for i, m := range models {
				plans[i].SetTree(t, sched.FromGraph(g, m.NumFUs).Comp)
			}
		}
	}
	return plans
}

// recordRun interprets prog once on the bytecode engine with a trace
// recorder attached.
func recordRun(prog *ir.Program) (*sim.Result, *trace.Trace, error) {
	rec := trace.NewRecorder()
	r := &sim.Runner{Prog: prog, SemLat: machine.Infinite(2).LatencyFunc(), Rec: rec}
	res, err := r.Run()
	if err != nil {
		return nil, nil, err
	}
	return res, rec.Finish(res.Ops, res.Committed), nil
}

// priceRun interprets prog once, recording its trace, and prices the trace
// under plans: the record + replay pair every timed measurement runs. The
// result carries the run's Output and Exit and the replay's Times.
func priceRun(prog *ir.Program, plans []*sim.Plan) (*sim.Result, error) {
	run, tr, err := recordRun(prog)
	if err != nil {
		return nil, err
	}
	res, err := (&sim.Replayer{Prog: prog, Plans: plans}).Replay(tr)
	if err != nil {
		return nil, err
	}
	res.Output, res.Exit = run.Output, run.Exit
	return res, nil
}

// referencePrice prices a trace histogram straight from the definition
// (DESIGN.md §2 and §5.3), sharing no code with the Replayer: one execution
// of a pattern costs the latest completion cycle, in the model's list
// schedule, among the ops that lie on the path to the taken exit and
// commit — unguarded ops always, guarded ops when their commit bit is set.
// A pattern costs that times its count.
func referencePrice(prog *ir.Program, h *trace.Hist, memLat int, models []machine.Model) []int64 {
	trees := map[int]*ir.Tree{}
	for _, name := range prog.Order {
		for _, t := range prog.Funcs[name].Trees {
			trees[t.PIdx] = t
		}
	}
	comps := map[*ir.Tree][][]int64{} // per tree: one completion table per model
	times := make([]int64, len(models))
	for _, e := range h.Entries {
		t := trees[e.Idx]
		if comps[t] == nil {
			g := ir.BuildDepGraph(t, machine.Infinite(memLat).LatencyFunc())
			for _, m := range models {
				comps[t] = append(comps[t], sched.FromGraph(g, m.NumFUs).Comp)
			}
		}
		exit := t.Exits()[e.Exit]
		for mi := range models {
			var latest int64
			k := 0 // bit k is the k-th guarded op in Seq order
			for _, op := range t.Ops {
				commits := true
				if op.Guard != ir.NoReg {
					commits = e.Bit(k)
					k++
				}
				if c := comps[t][mi][op.Seq]; commits && t.OnPath(op.Block, exit.Block) && c > latest {
					latest = c
				}
			}
			times[mi] += latest * e.Count
		}
	}
	return times
}

// TestReplayMatchesInterpretation is the pricing oracle: for every
// benchmark's NAIVE and SPEC programs at memory latencies 2 and 6, the
// Replayer must price a recorded interpretation exactly as the definitional
// reference pricer does, under all nine standard models, and report the
// run's operation counts.
func TestReplayMatchesInterpretation(t *testing.T) {
	for _, bm := range bench.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			for _, kind := range []disamb.Kind{disamb.Naive, disamb.Spec} {
				for _, memLat := range []int{2, 6} {
					p, err := disamb.Prepare(bm.Source, kind, memLat, spd.DefaultParams())
					if err != nil {
						t.Fatalf("%s/%d: %v", kind, memLat, err)
					}
					run, tr, err := recordRun(p.Prog)
					if err != nil {
						t.Fatalf("%s/%d: %v", kind, memLat, err)
					}
					h, err := tr.Hist()
					if err != nil || len(h.Entries) == 0 {
						t.Fatalf("%s/%d: empty or unreadable histogram (err %v)", kind, memLat, err)
					}
					rp := &sim.Replayer{Prog: p.Prog, Plans: stdPlans(t, p.Prog, memLat)}
					got, err := rp.Replay(tr)
					if err != nil {
						t.Fatalf("%s/%d: %v", kind, memLat, err)
					}
					if want := referencePrice(p.Prog, h, memLat, stdModels(memLat)); !reflect.DeepEqual(got.Times, want) {
						t.Fatalf("%s/%d: replay times %v\nreference times %v", kind, memLat, got.Times, want)
					}
					if got.Ops != run.Ops || got.Committed != run.Committed {
						t.Fatalf("%s/%d: replay ops/committed = %d/%d, run %d/%d",
							kind, memLat, got.Ops, got.Committed, run.Ops, run.Committed)
					}
				}
			}
		})
	}
}

// TestReplayRejectsMismatchedProgram checks replay refuses a trace from a
// structurally different program instead of pricing garbage.
func TestReplayRejectsMismatchedProgram(t *testing.T) {
	src1 := `
int a[8];
void main() {
	for (int i = 0; i < 8; i = i + 1) { a[i] = i * 3; }
	int s = 0;
	for (int i = 0; i < 8; i = i + 1) { s = s + a[i]; }
	print(s);
}`
	// More trees and guards than src1.
	src2 := `
int a[8];
int b[8];
void main() {
	for (int i = 0; i < 8; i = i + 1) { a[i] = i; b[i] = i * 2; }
	int s = 0;
	for (int i = 0; i < 8; i = i + 1) {
		if (a[i] > 3) { b[i % 8] += a[i]; }
		s = s + b[i];
	}
	print(s);
}`
	prog1, err := compile.Compile(src1)
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := compile.Compile(src2)
	if err != nil {
		t.Fatal(err)
	}
	_, tr2, err := recordRun(prog2)
	if err != nil {
		t.Fatal(err)
	}
	rp := &sim.Replayer{Prog: prog1, Plans: stdPlans(t, prog1, 2)}
	if _, err := rp.Replay(tr2); err == nil {
		t.Fatal("replay accepted a trace from a different program")
	}
}

// TestReplayRejectsCorruptTrace checks integrity errors surface from Replay
// as trace.ErrCorrupt, while an empty but intact trace replays cleanly.
func TestReplayRejectsCorruptTrace(t *testing.T) {
	prog, err := compile.Compile(`void main() { print(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	rp := &sim.Replayer{Prog: prog, Plans: stdPlans(t, prog, 2)}
	if _, err := rp.Replay(trace.NewRecorder().Finish(0, 0)); err != nil {
		t.Fatalf("empty trace must replay cleanly, got %v", err)
	}
	var footerless trace.Trace
	if _, err := rp.Replay(&footerless); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("footerless trace: Replay error = %v, want trace.ErrCorrupt", err)
	}
	flipped := trace.NewRecorder().Finish(0, 0)
	flipped.FlipByte(0)
	if _, err := rp.Replay(flipped); !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("flipped trace: Replay error = %v, want trace.ErrCorrupt", err)
	}
}

// BenchmarkExecTreeReplay times pricing: the fft benchmark under the nine
// standard models from a recorded trace (histogram already aggregated, as
// in the steady state of a run).
func BenchmarkExecTreeReplay(b *testing.B) {
	prog, err := compile.Compile(bench.ByName("fft").Source)
	if err != nil {
		b.Fatal(err)
	}
	plans := stdPlans(b, prog, 2)
	_, tr, err := recordRun(prog)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tr.Hist(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp := &sim.Replayer{Prog: prog, Plans: plans}
		if _, err := rp.Replay(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceCapture times an interpretation with recording on — the
// cost a timed run pays before its trace can be priced.
func BenchmarkTraceCapture(b *testing.B) {
	prog, err := compile.Compile(bench.ByName("fft").Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tr, err := recordRun(prog)
		if err != nil {
			b.Fatal(err)
		}
		if tr.TreeExecs == 0 {
			b.Fatal("no tree executions recorded")
		}
	}
}
