package sim_test

import (
	"testing"

	"specdis/internal/compile"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/sched"
	"specdis/internal/sim"
)

// runSrc compiles and runs a MiniC program on the 2-cycle-memory model,
// pricing its trace under an infinite-machine plan.
func runSrc(t *testing.T, src string) *sim.Result {
	t.Helper()
	prog, err := compile.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := machine.Infinite(2)
	plan := sim.NewPlan("inf")
	for _, name := range prog.Order {
		for _, tr := range prog.Funcs[name].Trees {
			plan.SetTree(tr, sched.Tree(tr, m).Comp)
		}
	}
	res, err := priceRun(prog, []*sim.Plan{plan})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestSmokeArithmetic(t *testing.T) {
	res := runSrc(t, `
void main() {
	int x = 6;
	int y = 7;
	print(x * y);
	print(x - y);
	float f = 1.5;
	print(f * 4.0);
}`)
	want := "42\n-1\n6\n"
	if res.Output != want {
		t.Fatalf("output = %q, want %q", res.Output, want)
	}
}

func TestSmokeLoopAndArrays(t *testing.T) {
	res := runSrc(t, `
int a[10];
void main() {
	for (int i = 0; i < 10; i = i + 1) {
		a[i] = i * i;
	}
	int s = 0;
	for (int i = 0; i < 10; i = i + 1) {
		s = s + a[i];
	}
	print(s);
}`)
	if res.Output != "285\n" {
		t.Fatalf("output = %q, want 285", res.Output)
	}
	if res.Times[0] <= 0 {
		t.Fatalf("no cycles accumulated")
	}
}

func TestSmokeIfElseAndCalls(t *testing.T) {
	res := runSrc(t, `
int gcd(int a, int b) {
	while (b != 0) {
		int t = a % b;
		a = b;
		b = t;
	}
	return a;
}
void main() {
	print(gcd(1071, 462));
	if (gcd(8, 12) == 4) { print(1); } else { print(0); }
}`)
	if res.Output != "21\n1\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestSmokeRecursion(t *testing.T) {
	res := runSrc(t, `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
void main() {
	print(fib(15));
}`)
	if res.Output != "610\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestSmokeAmbiguousStoreLoad(t *testing.T) {
	// The classic Example 2-1 shape: store a[i], load a[j], i may equal j.
	res := runSrc(t, `
int a[8];
int work(int i, int j) {
	a[i] = 100;
	return a[j] + 1;
}
void main() {
	a[3] = 7;
	print(work(2, 3)); // no alias: reads 7
	print(work(3, 3)); // alias: reads 100
}`)
	if res.Output != "8\n101\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestSmokeBreakContinue(t *testing.T) {
	res := runSrc(t, `
void main() {
	int s = 0;
	for (int i = 0; i < 10; i = i + 1) {
		if (i == 3) { continue; }
		if (i == 7) { break; }
		s = s + i;
	}
	print(s);
}`)
	// 0+1+2+4+5+6 = 18
	if res.Output != "18\n" {
		t.Fatalf("output = %q", res.Output)
	}
}

func TestSchedulesAgreeOnOutput(t *testing.T) {
	src := `
float v[16];
void main() {
	for (int i = 0; i < 16; i = i + 1) { v[i] = float(i) * 0.5; }
	float s = 0.0;
	for (int i = 0; i < 16; i = i + 1) { s = s + v[i] * v[i]; }
	print(s);
}`
	prog, err := compile.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var plans []*sim.Plan
	models := []machine.Model{machine.Infinite(2), machine.New(1, 2), machine.New(4, 6)}
	for _, m := range models {
		p := sim.NewPlan(m.Name)
		for _, name := range prog.Order {
			for _, tr := range prog.Funcs[name].Trees {
				s := sched.Tree(tr, m)
				g := ir.BuildDepGraph(tr, m.LatencyFunc())
				if err := sched.Validate(g, s, m.NumFUs); err != nil {
					t.Fatalf("invalid schedule for %s under %s: %v", tr.Name, m.Name, err)
				}
				p.SetTree(tr, s.Comp)
			}
		}
		plans = append(plans, p)
	}
	res, err := priceRun(prog, plans)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Output == "" {
		t.Fatal("no output")
	}
	// A 1-FU machine can never beat the infinite machine.
	if res.Times[1] < res.Times[0] {
		t.Fatalf("1-FU machine (%d) faster than infinite (%d)", res.Times[1], res.Times[0])
	}
}
