package sim_test

import (
	"errors"
	"reflect"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/sched"
	"specdis/internal/sim"
	"specdis/internal/trace"
)

// stdPlans builds the nine standard machine models and their plans for prog.
func stdPlans(t testing.TB, prog *ir.Program, memLat int) []*sim.Plan {
	t.Helper()
	models := []machine.Model{machine.Infinite(memLat)}
	for w := 1; w <= 8; w++ {
		models = append(models, machine.New(w, memLat))
	}
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

// TestReplayMatchesInterpretation is the core equivalence property of the
// trace backend: for every benchmark, a timed interpretation and a replay of
// the same run's trace must report bit-identical per-plan cycle totals and
// operation counts.
func TestReplayMatchesInterpretation(t *testing.T) {
	for _, bm := range bench.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := compile.Compile(bm.Source)
			if err != nil {
				t.Fatal(err)
			}
			plans := stdPlans(t, prog, 2)
			rec := trace.NewRecorder()
			r := &sim.Runner{
				Prog:   prog,
				SemLat: machine.Infinite(2).LatencyFunc(),
				Plans:  plans,
				Rec:    rec,
			}
			interp, err := r.Run()
			if err != nil {
				t.Fatal(err)
			}
			tr := rec.Finish(interp.Ops, interp.Committed)
			if tr.TreeExecs == 0 {
				t.Fatal("trace recorded no tree executions")
			}

			rp := &sim.Replayer{Prog: prog, Plans: plans}
			replay, err := rp.Replay(tr)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(replay.Times, interp.Times) {
				t.Fatalf("replay times %v\ninterp times %v", replay.Times, interp.Times)
			}
			if replay.Ops != interp.Ops || replay.Committed != interp.Committed {
				t.Fatalf("replay ops/committed = %d/%d, interp %d/%d",
					replay.Ops, replay.Committed, interp.Ops, interp.Committed)
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
	run := func(src string) (*ir.Program, []*sim.Plan, *trace.Trace) {
		prog, err := compile.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		plans := stdPlans(t, prog, 2)
		rec := trace.NewRecorder()
		r := &sim.Runner{Prog: prog, SemLat: machine.Infinite(2).LatencyFunc(), Plans: plans, Rec: rec}
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return prog, plans, rec.Finish(res.Ops, res.Committed)
	}
	prog1, plans1, _ := run(src1)
	_, _, tr2 := run(src2)

	rp := &sim.Replayer{Prog: prog1, Plans: plans1}
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

// BenchmarkExecTreeReplay is the replay counterpart of BenchmarkExecTree:
// pricing the fft benchmark under the nine standard models from a recorded
// trace (histogram already aggregated, as in the steady state of a run).
func BenchmarkExecTreeReplay(b *testing.B) {
	bm := bench.ByName("fft")
	prog, err := compile.Compile(bm.Source)
	if err != nil {
		b.Fatal(err)
	}
	plans := stdPlans(b, prog, 2)
	rec := trace.NewRecorder()
	r := &sim.Runner{Prog: prog, SemLat: machine.Infinite(2).LatencyFunc(), Rec: rec}
	res, err := r.Run()
	if err != nil {
		b.Fatal(err)
	}
	tr := rec.Finish(res.Ops, res.Committed)
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

// BenchmarkTraceCapture times a profiling interpretation with recording on —
// the capture-side overhead the replay backend pays once per program.
func BenchmarkTraceCapture(b *testing.B) {
	bm := bench.ByName("fft")
	prog, err := compile.Compile(bm.Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := trace.NewRecorder()
		r := &sim.Runner{Prog: prog, SemLat: machine.Infinite(2).LatencyFunc(), Rec: rec}
		res, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		if tr := rec.Finish(res.Ops, res.Committed); tr.TreeExecs == 0 {
			b.Fatal("no tree executions recorded")
		}
	}
}
