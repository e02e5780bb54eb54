package sim_test

import (
	"strings"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/sched"
	"specdis/internal/sim"
)

func compileSrc(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := compile.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func TestDivisionByZeroIsDefined(t *testing.T) {
	p := compileSrc(t, `
void main() {
	int z = 0;
	print(5 / z);
	print(5 % z);
	float f = 0.0;
	print(1.0 / f);
}`)
	r := &sim.Runner{Prog: p, SemLat: machine.Infinite(2).LatencyFunc()}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(res.Output), "\n")
	if lines[0] != "0" || lines[1] != "0" {
		t.Errorf("integer div/rem by zero: %v", lines)
	}
	if lines[2] != "+Inf" {
		t.Errorf("float div by zero: %v", lines)
	}
}

func TestAddressClamping(t *testing.T) {
	// Committed loads through wild addresses clamp into the memory image
	// instead of crashing (the paper's non-faulting load assumption).
	p := compileSrc(t, `
int a[4];
int peek(int i) { return a[i]; }
void main() {
	print(peek(1000000));
	print(peek(-1000000));
	print(peek(2));
}`)
	r := &sim.Runner{Prog: p, SemLat: machine.Infinite(2).LatencyFunc()}
	if _, err := r.Run(); err != nil {
		t.Fatalf("clamped access crashed: %v", err)
	}
}

func TestMaxOpsGuard(t *testing.T) {
	p := compileSrc(t, `void main() { while (1) { } }`)
	r := &sim.Runner{Prog: p, SemLat: machine.Infinite(2).LatencyFunc(), MaxOps: 10000}
	if _, err := r.Run(); err == nil {
		t.Fatal("runaway loop not caught")
	}
}

func TestProfileCounts(t *testing.T) {
	p := compileSrc(t, `
int a[8];
int f(int i, int j) {
	a[i] = 1;
	return a[j];
}
void main() {
	int s = 0;
	for (int k = 0; k < 10; k = k + 1) { s = s + f(k % 8, (k + 4) % 8); }
	for (int k = 0; k < 6; k = k + 1) { s = s + f(3, 3); }
	print(s);
}`)
	prof := sim.NewProfile()
	r := &sim.Runner{Prog: p, SemLat: machine.Infinite(2).LatencyFunc(), Prof: prof}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	// f's entry tree executed 16 times.
	fTree := p.Funcs["f"].Trees[p.Funcs["f"].Entry]
	if got := prof.TreeExecCount(fTree); got != 16 {
		t.Errorf("f entry tree executed %d times, want 16", got)
	}
	// The store/load arc in f aliased exactly 6 of 16 executions.
	var arc *ir.MemArc
	for _, tr := range p.Funcs["f"].Trees {
		for _, a := range tr.Arcs {
			if a.Kind == ir.DepRAW {
				arc = a
			}
		}
	}
	if arc == nil {
		t.Fatal("no RAW arc in f")
	}
	if arc.ExecCount != 16 || arc.AliasCount != 6 {
		t.Errorf("arc counters exec=%d alias=%d, want 16/6", arc.ExecCount, arc.AliasCount)
	}
	if p := arc.AliasProb(0.1); p != 6.0/16 {
		t.Errorf("alias prob %v", p)
	}
	// Exit probabilities over the main loop tree sum to ~1.
	for _, tr := range p.Funcs["main"].Trees {
		if prof.TreeExecCount(tr) == 0 {
			continue
		}
		var sum float64
		for _, ex := range tr.Exits() {
			sum += prof.ExitProb(tr, ex)
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("tree %s exit probs sum to %v", tr.Name, sum)
		}
	}
}

// TestProfileServesClones pins what lets one profiling run serve several
// preparations: a profile holds no pointers into the program it was taken
// on, so a never-run Clone of the same compilation reads identical tree and
// exit counts from it, and AnnotateArcs gives the clone's arcs the profiled
// program's counters.
func TestProfileServesClones(t *testing.T) {
	for _, b := range bench.All() {
		prog := compileSrc(t, b.Source)
		clone := prog.Clone()
		prof := sim.NewProfile()
		r := &sim.Runner{Prog: prog, SemLat: machine.Infinite(2).LatencyFunc(), Prof: prof}
		if _, err := r.Run(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if err := prof.AnnotateArcs(clone); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		executed := 0
		for _, name := range prog.Order {
			for i, tr := range prog.Funcs[name].Trees {
				ct := clone.Funcs[name].Trees[i]
				n := prof.TreeExecCount(tr)
				if got := prof.TreeExecCount(ct); got != n {
					t.Fatalf("%s/%s: clone executed %d times, profiled program %d", b.Name, tr.Name, got, n)
				}
				if n > 0 {
					executed++
				}
				exits, cexits := tr.Exits(), ct.Exits()
				for j, e := range exits {
					if got, want := prof.ExitProb(ct, cexits[j]), prof.ExitProb(tr, e); got != want {
						t.Fatalf("%s/%s exit %d: clone prob %v, profiled program %v", b.Name, tr.Name, j, got, want)
					}
				}
				for k, a := range tr.Arcs {
					if ca := ct.Arcs[k]; ca.ExecCount != a.ExecCount || ca.AliasCount != a.AliasCount {
						t.Fatalf("%s/%s arc %d: clone counters %d/%d, profiled program %d/%d",
							b.Name, tr.Name, k, ca.ExecCount, ca.AliasCount, a.ExecCount, a.AliasCount)
					}
				}
			}
		}
		if executed == 0 {
			t.Fatalf("%s: no tree executed", b.Name)
		}
	}
}

func TestPlanPricingMatchesHandComputation(t *testing.T) {
	// One straight-line tree: cycles per execution = schedule completion of
	// the committed ops; main executes it once.
	src := `void main() { print(2 + 3); }`
	p := compileSrc(t, src)
	m := machine.New(1, 2)
	plan := sim.NewPlan("one")
	var total int64
	for _, name := range p.Order {
		for _, tr := range p.Funcs[name].Trees {
			s := sched.Tree(tr, m)
			plan.SetTree(tr, s.Comp)
			if len(p.Funcs[name].Trees) == 1 {
				total = s.Length()
			}
		}
	}
	r := &sim.Runner{Prog: p, SemLat: m.LatencyFunc(), Plans: []*sim.Plan{plan}}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Times[0] != total {
		t.Errorf("priced %d cycles, schedule length %d", res.Times[0], total)
	}
}

func TestUntakenPathDoesNotGateTime(t *testing.T) {
	// A never-taken branch hides an expensive divide chain; with guarded
	// speculation its completion must not lengthen the hot path.
	src := `
int flag = 0;
void main() {
	int s = 1;
	for (int i = 0; i < 100; i = i + 1) {
		if (flag == 1) {
			s = s / 7 / 3 / 5 / 2;  // four 7-cycle divides, never taken
		} else {
			s = s + 1;
		}
	}
	print(s);
}`
	p := compileSrc(t, src)
	m := machine.Infinite(2)
	plan := sim.NewPlan("inf")
	for _, name := range p.Order {
		for _, tr := range p.Funcs[name].Trees {
			plan.SetTree(tr, sched.Tree(tr, m).Comp)
		}
	}
	r := &sim.Runner{Prog: p, SemLat: m.LatencyFunc(), Plans: []*sim.Plan{plan}}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The divide chain alone would cost 4*7 = 28 cycles per iteration; the
	// taken path costs a handful. Bound generously.
	if res.Times[0] > 100*20 {
		t.Errorf("cold path gates the hot path: %d cycles for 100 iterations", res.Times[0])
	}
}

func TestRequiresSemLat(t *testing.T) {
	p := compileSrc(t, `void main() { print(1); }`)
	r := &sim.Runner{Prog: p}
	if _, err := r.Run(); err == nil {
		t.Fatal("missing SemLat accepted")
	}
}

func TestMainExitValue(t *testing.T) {
	p := compileSrc(t, `int main2() { return 42; } void main() { print(main2()); }`)
	r := &sim.Runner{Prog: p, SemLat: machine.Infinite(2).LatencyFunc()}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "42\n" {
		t.Errorf("output %q", res.Output)
	}
	if res.Ops <= 0 {
		t.Error("no ops counted")
	}
}

func TestFloatPrintFormatting(t *testing.T) {
	p := compileSrc(t, `void main() { print(0.1 + 0.2); print(1.0 / 3.0); }`)
	r := &sim.Runner{Prog: p, SemLat: machine.Infinite(2).LatencyFunc()}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Rounded to 6 significant digits for schedule-independent output.
	if res.Output != "0.3\n0.333333\n" {
		t.Errorf("output %q", res.Output)
	}
}
