package spd_test

import (
	"testing"

	"specdis/internal/bench"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/sim"
	"specdis/internal/spd"
	"specdis/internal/trace"
)

// multiRAW has one load region depending on two ambiguous stores: classic
// 2^n-copies territory for one-at-a-time SpD.
const multiRAW = `
int a[32];
int b[32];
void f(int i, int j, int k, int v) {
	a[i] = v;
	a[j] = v * 2;
	int x = a[k];          // ambiguous with both stores
	b[k] = x * x + 1;      // consumer is a store, not a return value
}
void main() {
	for (int n = 0; n < 60; n = n + 1) {
		f(n % 32, (n + 7) % 32, (n * 3) % 32, n);
	}
	int s = 0;
	for (int n = 0; n < 32; n = n + 1) { s = (s * 31 + b[n]) % 1000003; }
	print(s);
}
`

func TestCombinedPreservesSemantics(t *testing.T) {
	prog, prof, lat := prep(t, multiRAW)
	r0 := &sim.Runner{Prog: prog, SemLat: lat}
	before, err := r0.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := spd.TransformCombined(prog, prof, spd.DefaultParams())
	if res.RAW < 2 {
		t.Fatalf("combined speculation covered only %d arcs", res.RAW)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	r1 := &sim.Runner{Prog: prog, SemLat: lat}
	after, err := r1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if before.Output != after.Output {
		t.Fatalf("output changed: %q -> %q", before.Output, after.Output)
	}
}

func TestCombinedIsSmallerThanOneAtATime(t *testing.T) {
	// §7's point: one version for the likely outcome instead of up to 2^n
	// copies. Combined must add fewer ops than the iterated transform when
	// both fully disambiguate the same load region.
	progA, profA, latA := prep(t, multiRAW)
	paramsEager := spd.DefaultParams()
	paramsEager.MinGain = 0.01
	resA := spd.Transform(progA, profA, latA, paramsEager)

	progB, profB, _ := prep(t, multiRAW)
	resB := spd.TransformCombined(progB, profB, spd.DefaultParams())

	if resA.AddedOps == 0 || resB.AddedOps == 0 || resA.RAW == 0 || resB.RAW == 0 {
		t.Skipf("transforms not comparable: %+v vs %+v", resA, resB)
	}
	// §7's economics: cost per disambiguated pair must be lower for the
	// combined form (one duplicate shared by all pairs).
	perA := float64(resA.AddedOps) / float64(resA.RAW)
	perB := float64(resB.AddedOps) / float64(resB.RAW)
	if perB >= perA {
		t.Errorf("combined costs %.1f ops/pair, one-at-a-time %.1f: expected combined cheaper",
			perB, perA)
	}
	t.Logf("one-at-a-time: %d pairs, +%d ops (%.1f/pair); combined: %d pairs, +%d ops (%.1f/pair)",
		resA.RAW, resA.AddedOps, perA, resB.RAW, resB.AddedOps, perB)
}

// infCycles records one run of prog and prices its trace on m under an
// ASAP (infinite-resource) plan.
func infCycles(t *testing.T, prog *ir.Program, lat ir.LatencyFunc, m machine.Model) int64 {
	t.Helper()
	plan := sim.NewPlan(m.Name)
	for _, name := range prog.Order {
		for _, tr := range prog.Funcs[name].Trees {
			g := ir.BuildDepGraph(tr, m.LatencyFunc())
			asap := g.ASAP()
			comp := make([]int64, len(asap))
			for i, c := range asap {
				comp[i] = int64(c + g.Latency(i))
			}
			plan.SetTree(tr, comp)
		}
	}
	rec := trace.NewRecorder()
	run, err := (&sim.Runner{Prog: prog, SemLat: lat, Rec: rec}).Run()
	if err != nil {
		t.Fatal(err)
	}
	rp := &sim.Replayer{Prog: prog, Plans: []*sim.Plan{plan}}
	res, err := rp.Replay(rec.Finish(run.Ops, run.Committed))
	if err != nil {
		t.Fatal(err)
	}
	return res.Times[0]
}

func TestCombinedSpeedsUpWideMachine(t *testing.T) {
	m := machine.Infinite(6)

	progA, _, latA := prep(t, multiRAW)
	cyclesA := infCycles(t, progA, latA, m)

	progB, profB, latB := prep(t, multiRAW)
	spd.TransformCombined(progB, profB, spd.DefaultParams())
	cyclesB := infCycles(t, progB, latB, m)
	if cyclesB >= cyclesA {
		t.Errorf("combined speculation did not speed up the infinite machine: %d vs %d",
			cyclesB, cyclesA)
	}
}

func TestCombinedRejectsBadGroups(t *testing.T) {
	prog, _, _ := prep(t, multiRAW)
	var tree *ir.Tree
	for _, tr := range prog.Funcs["f"].Trees {
		if len(tr.AmbiguousArcs()) > 0 {
			tree = tr
		}
	}
	if tree == nil {
		t.Fatal("no ambiguous tree")
	}
	if _, err := spd.ApplyCombinedRAW(tree, nil, true); err == nil {
		t.Error("empty group accepted")
	}
	// WAR arcs rejected.
	var war *ir.MemArc
	for _, a := range tree.Arcs {
		if a.Kind == ir.DepWAR {
			war = a
		}
	}
	if war != nil {
		if _, err := spd.ApplyCombinedRAW(tree, []*ir.MemArc{war, war}, true); err == nil {
			t.Error("WAR group accepted")
		}
	}
}

func TestCombinedOnSuiteKeepsOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, b := range bench.All() {
		prog, prof, lat := prep(t, b.Source)
		r0 := &sim.Runner{Prog: prog, SemLat: lat}
		before, err := r0.Run()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		spd.TransformCombined(prog, prof, spd.DefaultParams())
		if err := prog.Validate(); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		r1 := &sim.Runner{Prog: prog, SemLat: lat}
		after, err := r1.Run()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if before.Output != after.Output {
			t.Fatalf("%s: combined speculation changed output", b.Name)
		}
	}
}
