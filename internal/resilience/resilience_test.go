package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"specdis/internal/trace"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassUnknown},
		{errors.New("boom"), ClassUnknown},
		{fmt.Errorf("sim: over budget: %w", ErrFuelExhausted), ClassFuel},
		{fmt.Errorf("sim: %w: %w", ErrDeadline, context.DeadlineExceeded), ClassDeadline},
		{context.Canceled, ClassDeadline},
		{fmt.Errorf("plan p: %w", ErrMissingSchedule), ClassMissingSchedule},
		{fmt.Errorf("replay: %w", trace.ErrCorrupt), ClassCorruptTrace},
		{&CellError{Class: ClassPanic, Err: errors.New("x")}, ClassPanic},
		{fmt.Errorf("outer: %w", &CellError{Class: ClassPanic, Err: errors.New("x")}), ClassPanic},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestRetryable(t *testing.T) {
	for class, want := range map[Class]bool{
		ClassPanic:           true,
		ClassUnknown:         true,
		ClassFuel:            false,
		ClassDeadline:        false,
		ClassCorruptTrace:    false,
		ClassMissingSchedule: false,
	} {
		if got := class.Retryable(); got != want {
			t.Errorf("%v.Retryable() = %v, want %v", class, got, want)
		}
	}
}

func TestRecoverConvertsPanic(t *testing.T) {
	run := func() (err error) {
		defer Recover(&err, "fft", "SPEC", 2, "measure")
		panic(InjectedPanic(123))
	}
	err := run()
	if err == nil {
		t.Fatal("panic was not recovered into an error")
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("recovered error is %T, want *CellError", err)
	}
	if ce.Class != ClassPanic || ce.Benchmark != "fft" || ce.Pipeline != "SPEC" || ce.MemLat != 2 || ce.Stage != "measure" {
		t.Fatalf("cell error fields wrong: %+v", ce)
	}
	if len(ce.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected panic lost its marker: %v", err)
	}
	if want := "fft/SPEC/m2"; ce.Cell() != want {
		t.Fatalf("Cell() = %q, want %q", ce.Cell(), want)
	}
	if !strings.Contains(ce.Error(), "panic") {
		t.Fatalf("Error() does not mention the class: %q", ce.Error())
	}
}

func TestRecoverNoPanicKeepsError(t *testing.T) {
	sentinel := errors.New("original")
	run := func() (err error) {
		defer Recover(&err, "b", "NAIVE", 2, "prepare")
		return sentinel
	}
	if err := run(); err != sentinel {
		t.Fatalf("Recover clobbered a clean return: %v", err)
	}
}

func TestAsCellErrorIdempotent(t *testing.T) {
	inner := fmt.Errorf("run: %w", ErrFuelExhausted)
	ce := AsCellError(inner, "fft", "SPEC", 6, "measure")
	if ce.Class != ClassFuel {
		t.Fatalf("class = %v, want fuel", ce.Class)
	}
	// Wrapping again (even through another layer) returns the original.
	again := AsCellError(fmt.Errorf("outer: %w", ce), "other", "NAIVE", 2, "prepare")
	if again != ce {
		t.Fatalf("AsCellError re-wrapped an existing CellError")
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	p := &FaultPlan{Seed: 42, Rate: 0.5, Kinds: []FaultKind{FaultPanic, FaultFuel}}
	cells := []string{"a/NAIVE/m2", "a/SPEC/m2", "a/SPEC/m6", "b/PERFECT/m0"}
	first := make([]Fault, len(cells))
	hit := 0
	for i, c := range cells {
		first[i] = p.For(c)
		if first[i].Kind != FaultNone {
			hit++
		}
	}
	for i, c := range cells {
		if again := p.For(c); again != first[i] {
			t.Fatalf("plan not deterministic for %s: %+v vs %+v", c, again, first[i])
		}
	}
	// A different seed must (for this tiny grid) be allowed to differ; just
	// check it is also deterministic and in-range.
	p2 := &FaultPlan{Seed: 43, Rate: 1.0, Kinds: []FaultKind{FaultFlipTrace}, FlipTimes: 2}
	f := p2.For(cells[0])
	if f.Kind != FaultFlipTrace || f.Times != 2 {
		t.Fatalf("rate-1 plan skipped a cell or lost times: %+v", f)
	}
	_ = hit // selection rate over 4 cells is noise; determinism is the contract
}

func TestFaultPlanExplicitCells(t *testing.T) {
	p := &FaultPlan{
		Seed: 9, Rate: 1.0, Kinds: []FaultKind{FaultPanic},
		Cells: map[string]Fault{"fft/SPEC/m2": {Kind: FaultFuel, N: 77}},
	}
	if f := p.For("fft/SPEC/m2"); f.Kind != FaultFuel || f.N != 77 {
		t.Fatalf("explicit cell fault wrong: %+v", f)
	}
	if f := p.For("fft/SPEC/m6"); f.Kind != FaultNone {
		t.Fatalf("unlisted cell faulted under explicit plan: %+v", f)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=7,rate=0.25,kinds=panic+flip,times=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Rate != 0.25 || p.FlipTimes != 2 {
		t.Fatalf("parsed plan wrong: %+v", p)
	}
	if len(p.Kinds) != 2 || p.Kinds[0] != FaultPanic || p.Kinds[1] != FaultFlipTrace {
		t.Fatalf("parsed kinds wrong: %v", p.Kinds)
	}
	if s := p.String(); !strings.Contains(s, "seed=7") || !strings.Contains(s, "panic+flip") {
		t.Fatalf("String() lost fields: %q", s)
	}

	// Defaults: every kind, rate 1.
	p, err = ParsePlan("seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if p.Rate != 1.0 || len(p.Kinds) != 5 {
		t.Fatalf("defaults wrong: %+v", p)
	}

	for _, bad := range []string{"seed", "seed=x", "rate=2", "rate=0", "times=0", "kinds=wat", "nope=1"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestStoreIOKind(t *testing.T) {
	// sio parses, but is store-level: it never enters the per-cell deal.
	p, err := ParsePlan("seed=5,kinds=bpanic+sio")
	if err != nil {
		t.Fatal(err)
	}
	if !p.StoreIO() {
		t.Fatal("plan naming sio did not report StoreIO")
	}
	if ck := p.CellKinds(); len(ck) != 1 || ck[0] != FaultBCodePanic {
		t.Fatalf("CellKinds = %v, want [bpanic]", ck)
	}
	// An sio-only plan deals nothing per cell.
	p, err = ParsePlan("seed=5,rate=1,kinds=sio")
	if err != nil {
		t.Fatal(err)
	}
	if f := p.For("fft/SPEC/m2"); f.Kind != FaultNone {
		t.Fatalf("sio-only plan dealt a cell fault: %+v", f)
	}
	// The default deal must stay exactly the historical five kinds — adding
	// sio there would shift the round-robin and break pinned chaos counts.
	p, err = ParsePlan("seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if p.StoreIO() {
		t.Fatal("sio leaked into the default kinds")
	}
	// A mixed plan's per-cell deal is identical to the same plan without sio:
	// naming the store kind never re-deals existing cell faults.
	with, _ := ParsePlan("seed=11,rate=0.5,kinds=panic+fuel+sio")
	without, _ := ParsePlan("seed=11,rate=0.5,kinds=panic+fuel")
	for _, cell := range []string{"a/NAIVE/m2", "a/SPEC/m2", "b/SPEC/m6", "c/PERFECT/m0"} {
		if fw, fo := with.For(cell), without.For(cell); fw != fo {
			t.Fatalf("sio shifted the deal for %s: %+v vs %+v", cell, fw, fo)
		}
	}
}

func TestCellPlan(t *testing.T) {
	// Only a plan that deals per-cell faults reaches the runners.
	mixed, _ := ParsePlan("seed=5,kinds=bpanic+sio")
	sioOnly, _ := ParsePlan("seed=5,rate=1,kinds=sio")
	cells := &FaultPlan{Cells: map[string]Fault{"fft/SPEC/m2": {Kind: FaultPanic}}}
	for _, tc := range []struct {
		name       string
		plan, want *FaultPlan
	}{
		{"nil", nil, nil},
		{"sio only", sioOnly, nil},
		{"cell kinds and sio", mixed, mixed},
		{"explicit cells", cells, cells},
	} {
		if got := tc.plan.CellPlan(); got != tc.want {
			t.Errorf("%s: CellPlan() = %p, want %p", tc.name, got, tc.want)
		}
	}
}
