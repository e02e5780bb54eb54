package sim_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"specdis/internal/machine"
	"specdis/internal/resilience"
	"specdis/internal/sim"
	"specdis/internal/trace"
)

// loopSrc never terminates: only the fuel budget or a deadline can stop it.
const loopSrc = `
void main() {
	int i = 0;
	while (1) {
		i = i + 1;
	}
}`

func loopRunner(t *testing.T, mode sim.ExecMode) *sim.Runner {
	t.Helper()
	return &sim.Runner{
		Prog:   compileSrc(t, loopSrc),
		SemLat: machine.Infinite(2).LatencyFunc(),
		Exec:   mode,
	}
}

// TestFuelExhaustedAllEngines proves the nontermination bound on every
// execution engine: tree walker, bytecode, and bytecode under trace capture.
func TestFuelExhaustedAllEngines(t *testing.T) {
	engines := []struct {
		name    string
		mode    sim.ExecMode
		capture bool
	}{
		{"tree", sim.ExecTree, false},
		{"bcode", sim.ExecBytecode, false},
		{"native", sim.ExecNative, false},
		{"capture", sim.ExecBytecode, true},
		{"native-capture", sim.ExecNative, true},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			r := loopRunner(t, e.mode)
			r.MaxOps = 10_000
			if e.capture {
				r.Rec = trace.NewRecorder()
			}
			_, err := r.Run()
			if !errors.Is(err, resilience.ErrFuelExhausted) {
				t.Fatalf("infinite loop on %s engine: err = %v, want ErrFuelExhausted", e.name, err)
			}
			// The bytecode-vs-tree fuzzer matches this word to pair up
			// budget aborts across backends; keep it in the message.
			if !strings.Contains(err.Error(), "budget") {
				t.Fatalf("fuel error lost the word \"budget\": %q", err)
			}
		})
	}
}

func TestDeadlineBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := loopRunner(t, sim.ExecBytecode)
	r.Ctx = ctx
	_, err := r.Run()
	if !errors.Is(err, resilience.ErrDeadline) {
		t.Fatalf("canceled context: err = %v, want ErrDeadline", err)
	}
}

func TestDeadlineCancelsMidRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	r := loopRunner(t, sim.ExecBytecode)
	r.Ctx = ctx
	start := time.Now()
	_, err := r.Run()
	if !errors.Is(err, resilience.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline mid-run: err = %v, want ErrDeadline wrapping DeadlineExceeded", err)
	}
	// The poll interval bounds cancellation latency far below the fuel
	// horizon; give CI lots of slack but fail on an actual hang-till-fuel.
	if time.Since(start) > 10*time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
}

func TestReplayMissingScheduleIsTypedError(t *testing.T) {
	prog := compileSrc(t, `void main() { print(1); }`)
	_, tr, err := recordRun(prog)
	if err != nil {
		t.Fatal(err)
	}
	rp := &sim.Replayer{Prog: prog, Plans: []*sim.Plan{sim.NewPlan("empty")}}
	if _, err := rp.Replay(tr); !errors.Is(err, resilience.ErrMissingSchedule) {
		t.Fatalf("replay: err = %v, want ErrMissingSchedule", err)
	}
}

func TestPlanDrop(t *testing.T) {
	prog := compileSrc(t, `void main() { print(1); }`)
	plans := stdPlans(t, prog, 2)
	for _, p := range plans {
		for range p.Trees() {
			p.Drop(0)
		}
	}
	if _, err := priceRun(prog, plans[:1]); !errors.Is(err, resilience.ErrMissingSchedule) {
		t.Fatalf("dropped schedule: err = %v, want ErrMissingSchedule", err)
	}
}

// TestChaosPanicAt proves the injection hook panics with a value that stays
// matchable as an injected fault once recovered at a cell boundary.
func TestChaosPanicAt(t *testing.T) {
	for _, mode := range []sim.ExecMode{sim.ExecTree, sim.ExecBytecode, sim.ExecNative} {
		run := func() (res *sim.Result, err error) {
			defer resilience.Recover(&err, "test", "NAIVE", 2, "measure")
			r := loopRunner(t, mode)
			r.ChaosPanicAt = 5_000
			return r.Run()
		}
		_, err := run()
		if !errors.Is(err, resilience.ErrInjected) {
			t.Fatalf("%v engine: err = %v, want recovered injected panic", mode, err)
		}
		var ce *resilience.CellError
		if !errors.As(err, &ce) || ce.Class != resilience.ClassPanic {
			t.Fatalf("%v engine: recovered error not a panic CellError: %v", mode, err)
		}
	}
}
