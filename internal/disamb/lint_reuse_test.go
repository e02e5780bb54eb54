package disamb_test

import (
	"fmt"
	"slices"
	"testing"

	"specdis/internal/alias"
	"specdis/internal/bcode"
	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/ir"
	"specdis/internal/ncode"
	"specdis/internal/sched"
)

// sameLint requires Lint's report to equal the one with run reuse off
// (disamb.LintFresh) in every finding, skip notice and skip error, and in
// every stat but Interps, which reuse exists to lower.
func sameLint(t *testing.T, name, src string, o disamb.LintOptions) (reused, fresh *disamb.LintReport) {
	t.Helper()
	reused, err := disamb.Lint(src, o)
	fresh, ferr := disamb.LintFresh(src, o)
	if fmt.Sprint(err) != fmt.Sprint(ferr) {
		t.Fatalf("%s: error %v, with reuse off %v", name, err, ferr)
	}
	if err != nil {
		return nil, nil
	}
	rs, fs := reused.Stats, fresh.Stats
	rs.Interps, fs.Interps = 0, 0
	if rs != fs {
		t.Errorf("%s: stats %+v, with reuse off %+v", name, rs, fs)
	}
	if !slices.Equal(reused.Findings, fresh.Findings) {
		t.Errorf("%s: findings differ from reuse off:\n%v\nwant\n%v", name, reused.Findings, fresh.Findings)
	}
	if !slices.Equal(reused.Skips, fresh.Skips) {
		t.Errorf("%s: skips differ from reuse off:\n%q\nwant\n%q", name, reused.Skips, fresh.Skips)
	}
	if fmt.Sprint(reused.SkipErr()) != fmt.Sprint(fresh.SkipErr()) {
		t.Errorf("%s: skip error %v, with reuse off %v", name, reused.SkipErr(), fresh.SkipErr())
	}
	if reused.Stats.Interps > fresh.Stats.Interps {
		t.Errorf("%s: %d interpretations with reuse, %d without", name, reused.Stats.Interps, fresh.Stats.Interps)
	}
	return reused, fresh
}

// TestLintReuseMatchesFresh is run reuse's differential test: on the
// suite, on generated programs, under every corruption hook, with the
// injected panic armed and under starved budgets, Lint reports exactly
// what it reports when every cell interprets its own program.
func TestLintReuseMatchesFresh(t *testing.T) {
	t.Run("suite", func(t *testing.T) {
		t.Parallel()
		reused, fresh := 0, 0
		for _, b := range bench.Everything() {
			r, f := sameLint(t, b.Name, b.Source, disamb.LintOptions{MemLats: []int{2, 6}})
			if r == nil {
				t.Fatalf("%s: lint failed", b.Name)
			}
			reused += r.Stats.Interps
			fresh += f.Stats.Interps
		}
		// Six interpretations per program without reuse: the profiling
		// run and one per NAIVE, STATIC, PERFECT, SPEC/m2 and SPEC/m6 cell.
		if reused != 25 || fresh != 84 {
			t.Errorf("suite interpretations: %d with reuse, %d without; want 25 and 84", reused, fresh)
		}
	})

	t.Run("generated", func(t *testing.T) {
		t.Parallel()
		n := int64(40)
		if testing.Short() {
			n = 10
		}
		for seed := int64(1); seed <= n; seed++ {
			sameLint(t, fmt.Sprintf("seed %d", seed), newProgGen(seed).generate(),
				disamb.LintOptions{MemLats: []int{2, 6}, MaxOps: 5_000_000})
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		t.Parallel()
		// fft has SpD pairs; queen is TestLintArcSubsetRule's program.
		for _, name := range []string{"fft", "queen"} {
			hooks := []struct {
				name string
				o    disamb.LintOptions
			}{
				{"seq", disamb.LintOptions{Corrupt: swapFirstOps}},
				{"arc", disamb.LintOptions{Corrupt: danglingArc}},
				{"counters", disamb.LintOptions{Corrupt: inflateAliasCount}},
				{"drop-naive-arc", disamb.LintOptions{Corrupt: dropNaiveArc}},
				{"bmask", disamb.LintOptions{CorruptBCode: flipGuardPolarity}},
				{"nfuse", disamb.LintOptions{CorruptNCode: gapFusionPlan}},
				{"sched", disamb.LintOptions{CorruptSched: func(s *sched.Schedule) { s.Issue = s.Issue[:len(s.Issue)-1] }}},
			}
			for _, h := range hooks {
				h.o.MemLats = []int{2, 6}
				r, _ := sameLint(t, name+"/"+h.name, bench.ByName(name).Source, h.o)
				if r != nil && r.Clean() {
					t.Errorf("%s/%s: corruption not reported", name, h.name)
				}
			}
		}
	})

	t.Run("chaos-panic", func(t *testing.T) {
		t.Parallel()
		for _, b := range bench.Everything() {
			r, _ := sameLint(t, b.Name, b.Source, disamb.LintOptions{MemLats: []int{2, 6}, ChaosPanicAt: 10_000})
			if r != nil && r.Clean() {
				t.Errorf("%s: injected panics not reported", b.Name)
			}
		}
	})

	t.Run("starved", func(t *testing.T) {
		t.Parallel()
		src := bench.ByName("fft").Source
		// 60,000 ops run fft's base program (49,574) but not its SPEC
		// programs (71,644); 1,000 run nothing.
		for _, fuel := range []int64{1_000, 49_573, 49_574, 60_000, 71_644} {
			r, _ := sameLint(t, fmt.Sprintf("fuel %d", fuel), src, disamb.LintOptions{MemLats: []int{2, 6}, MaxOps: fuel})
			if r != nil && fuel < 71_644 && r.Stats.Skipped == 0 {
				t.Errorf("fuel %d: no cell skipped", fuel)
			}
		}
	})
}

// TestLintArcSubsetRule pins the arc-subset rule on cells that run the
// same ops: a cell carrying an arc an earlier run's program lacked must
// interpret rather than reuse that run, which never counted the arc. The
// NAIVE cell loses an arc STATIC keeps (dropNaiveArc), and the injected
// panic is armed past the program's end, as -chaos panic is on a short
// program, so the unarmed profiling run cannot serve: NAIVE and STATIC
// interpret, and SPEC and PERFECT reuse one of their runs.
func TestLintArcSubsetRule(t *testing.T) {
	src := bench.ByName("queen").Source
	o := disamb.LintOptions{MemLats: []int{2, 6}, Corrupt: dropNaiveArc, ChaosPanicAt: 1 << 40}
	reused, _ := sameLint(t, "queen", src, o)
	if reused == nil {
		t.Fatal("lint failed")
	}
	if reused.Stats.Interps != 3 {
		t.Errorf("%d interpretations, want 3: the profiling run, NAIVE and STATIC", reused.Stats.Interps)
	}
}

// dropNaiveArc is a Corrupt hook that removes, from the NAIVE cell only,
// the first arc static disambiguation cannot disprove, so the later cells
// carry an arc NAIVE's program lacks while every cell runs the same ops.
// It tells NAIVE's program by its arcs: every tree still has one for each
// pair of memory ops with a store (ir.Tree.BuildMemArcs).
func dropNaiveArc(p *ir.Program) {
	for _, name := range p.Order {
		for _, t := range p.Funcs[name].Trees {
			mem, loads := 0, 0
			for _, op := range t.MemOps() {
				mem++
				if op.Kind == ir.OpLoad {
					loads++
				}
			}
			if len(t.Arcs) != mem*(mem-1)/2-loads*(loads-1)/2 {
				return // not NAIVE's program
			}
		}
	}
	for _, name := range p.Order {
		for _, t := range p.Funcs[name].Trees {
			for k, a := range t.Arcs {
				if alias.Test(a.From.Ref, a.To.Ref) != alias.VerdictNo {
					t.Arcs = append(t.Arcs[:k], t.Arcs[k+1:]...)
					return
				}
			}
		}
	}
}

// swapFirstOps breaks Seq order in the first tree with two ops.
func swapFirstOps(p *ir.Program) {
	for _, name := range p.Order {
		for _, t := range p.Funcs[name].Trees {
			if len(t.Ops) >= 2 {
				t.Ops[0], t.Ops[1] = t.Ops[1], t.Ops[0]
				return
			}
		}
	}
}

// danglingArc points the first arc at a copy of its source op.
func danglingArc(p *ir.Program) {
	for _, name := range p.Order {
		for _, t := range p.Funcs[name].Trees {
			if len(t.Arcs) > 0 {
				ghost := *t.Arcs[0].From
				t.Arcs[0].From = &ghost
				return
			}
		}
	}
}

// inflateAliasCount makes the first arc alias more often than it ran.
func inflateAliasCount(p *ir.Program) {
	for _, name := range p.Order {
		for _, t := range p.Funcs[name].Trees {
			if len(t.Arcs) > 0 {
				t.Arcs[0].AliasCount = t.Arcs[0].ExecCount + 1
				return
			}
		}
	}
}

// flipGuardPolarity inverts the first guarded bytecode instruction.
func flipGuardPolarity(p *bcode.Prog) {
	for i := range p.Code {
		if p.Code[i].Guard >= 0 {
			p.Code[i].GNeg = !p.Code[i].GNeg
			return
		}
	}
}

// gapFusionPlan unfuses the instruction a superinstruction head consumes.
func gapFusionPlan(p *ncode.Prog) {
	for i := 0; i+1 < len(p.Plan); i++ {
		if p.Plan[i] != ncode.FuseNone && p.Plan[i] != ncode.FuseConsumed && p.Plan[i+1] == ncode.FuseConsumed {
			p.Plan[i+1] = ncode.FuseNone
			return
		}
	}
}

// BenchmarkLint lints every suite program at memory latencies {2, 6}, as
// spdlint does, with one pair of compiled-code caches shared across
// iterations, as spdd shares its server-wide pair.
func BenchmarkLint(b *testing.B) {
	o := disamb.LintOptions{MemLats: []int{2, 6}, BCode: bcode.NewCache(nil), NCode: ncode.NewCache(nil)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, bm := range bench.Everything() {
			rep, err := disamb.Lint(bm.Source, o)
			if err != nil || !rep.Clean() {
				b.Fatalf("%s: %v %v", bm.Name, err, rep.Findings)
			}
		}
	}
}
