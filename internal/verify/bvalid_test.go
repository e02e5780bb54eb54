package verify_test

import (
	"fmt"
	"testing"

	"specdis/internal/bcode"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/ncode"
	"specdis/internal/sched"
	"specdis/internal/sim"
	"specdis/internal/spd"
	"specdis/internal/verify"
)

// transformedProgram compiles testSrc, profiles it, and applies SpD
// aggressively so the compiled streams carry guarded (commit-bit-bearing)
// instructions for the validator's SpD checks to bite on.
func transformedProgram(t *testing.T) *ir.Program {
	t.Helper()
	p := mustCompile(t)
	prof := sim.NewProfile()
	lat := machine.Infinite(3).LatencyFunc()
	r := &sim.Runner{Prog: p, SemLat: lat, Prof: prof}
	if _, err := r.Run(); err != nil {
		t.Fatalf("profiling run: %v", err)
	}
	params := spd.DefaultParams()
	params.MinGain = 0.01
	if res := spd.Transform(p, prof, lat, params); len(res.Apps) == 0 {
		t.Fatal("SpD applied nothing; test program is wrong")
	}
	return p
}

// compiledTrees yields every (tree, bytecode) pair of the program that the
// bytecode compiler accepts.
func compiledTrees(t *testing.T, p *ir.Program, visit func(tr *ir.Tree, bp *bcode.Prog) bool) {
	t.Helper()
	for _, name := range p.Order {
		for _, tr := range p.Funcs[name].Trees {
			bp, err := bcode.Compile(tr)
			if err != nil {
				continue
			}
			if visit(tr, bp) {
				return
			}
		}
	}
}

// guardIndices returns the stream positions of the guarded instructions.
func guardIndices(bp *bcode.Prog) []int {
	var idx []int
	for i := range bp.Code {
		if bp.Code[i].Guard >= 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// TestBCodeValidatorClean pins the baseline: every compiled tree of both the
// plain and the SpD-transformed program validates with zero findings, so the
// negative cases below prove detection rather than noise.
func TestBCodeValidatorClean(t *testing.T) {
	for _, p := range []*ir.Program{mustCompile(t), transformedProgram(t)} {
		n := 0
		compiledTrees(t, p, func(tr *ir.Tree, bp *bcode.Prog) bool {
			wantClean(t, verify.CheckBCode(tr, bp))
			n++
			return false
		})
		if n == 0 {
			t.Fatal("no tree compiled to bytecode")
		}
	}
}

// TestBCodeValidatorNegative seeds one precise corruption per subtest — a
// wild exit target, a float result flowing into an integer operand, a wrong
// commit-bit slot, a double-claimed commit bit — and requires the named
// finding.
func TestBCodeValidatorNegative(t *testing.T) {
	t.Run("bad-exit-target", func(t *testing.T) {
		p := mustCompile(t)
		var tr *ir.Tree
		var bp *bcode.Prog
		compiledTrees(t, p, func(ctr *ir.Tree, cbp *bcode.Prog) bool {
			for _, op := range ctr.Ops {
				if op != nil && op.Kind == ir.OpExit && (op.Exit == ir.ExitGoto || op.Exit == ir.ExitCall) {
					op.Target = 99 // way outside the function's tree list
					tr, bp = ctr, cbp
					return true
				}
			}
			return false
		})
		if tr == nil {
			t.Fatal("no compiled tree with a goto/call exit")
		}
		wantFinding(t, verify.CheckBCode(tr, bp), "bvalid/exit-target", "targets tree 99")
	})

	t.Run("float-into-int", func(t *testing.T) {
		p := mustCompile(t)
		var tr *ir.Tree
		var bp *bcode.Prog
		compiledTrees(t, p, func(ctr *ir.Tree, cbp *bcode.Prog) bool {
			// Find an instruction j reading register r in an integer-strict
			// position whose nearest reaching definition i is unguarded, then
			// rewrite i into an FAdd: the abstract state of r becomes float
			// and the read at j must be flagged.
			for j := range cbp.Code {
				in := &cbp.Code[j]
				var r int32 = -1
				switch in.Op {
				case bcode.Add, bcode.Sub, bcode.Mul, bcode.CmpEQ, bcode.CmpNE,
					bcode.CmpLT, bcode.CmpLE, bcode.CmpGT, bcode.CmpGE,
					bcode.Load, bcode.Store, bcode.PrintI:
					r = in.A
				}
				if r < 0 {
					continue
				}
				for i := j - 1; i >= 0; i-- {
					if cbp.Code[i].Dest != r {
						continue
					}
					if cbp.Code[i].Guard < 0 {
						cbp.Code[i].Op = bcode.FAdd
						tr, bp = ctr, cbp
						return true
					}
					break // nearest def is guarded: the join could mask the corruption
				}
			}
			return false
		})
		if tr == nil {
			t.Fatal("no rewritable integer def/use pair found")
		}
		wantFinding(t, verify.CheckBCode(tr, bp), "bvalid/type", "integer position")
	})

	t.Run("wrong-commit-bit", func(t *testing.T) {
		p := transformedProgram(t)
		var tr *ir.Tree
		var bp *bcode.Prog
		compiledTrees(t, p, func(ctr *ir.Tree, cbp *bcode.Prog) bool {
			if g := guardIndices(cbp); len(g) > 0 {
				cbp.Code[g[0]].GIdx++
				tr, bp = ctr, cbp
				return true
			}
			return false
		})
		if tr == nil {
			t.Fatal("no compiled tree with a guarded instruction after SpD")
		}
		wantFinding(t, verify.CheckBCode(tr, bp), "bvalid/commit-bit", "want 0")
	})

	t.Run("duplicate-commit-bit", func(t *testing.T) {
		p := transformedProgram(t)
		var tr *ir.Tree
		var bp *bcode.Prog
		compiledTrees(t, p, func(ctr *ir.Tree, cbp *bcode.Prog) bool {
			if g := guardIndices(cbp); len(g) >= 2 {
				cbp.Code[g[1]].GIdx = cbp.Code[g[0]].GIdx
				tr, bp = ctr, cbp
				return true
			}
			return false
		})
		if tr == nil {
			t.Fatal("no compiled tree with two guarded instructions after SpD")
		}
		wantFinding(t, verify.CheckBCode(tr, bp), "bvalid/commit-dup", "double commit")
	})
}

// TestNCodeValidatorCatchesBadPlan pins that the native-tier validator is
// not a pass-through: every compiled tree is clean, and a fusion plan
// claiming a superinstruction head that consumes nothing is rejected.
func TestNCodeValidatorCatchesBadPlan(t *testing.T) {
	p := mustCompile(t)
	var bad *ncode.Prog
	var badTree *ir.Tree
	for _, name := range p.Order {
		for _, tr := range p.Funcs[name].Trees {
			np, err := ncode.Compile(tr)
			if err != nil {
				continue
			}
			wantClean(t, verify.CheckNCode(tr, np))
			if bad == nil {
				for pc := 0; pc+1 < len(np.Plan); pc++ {
					if np.Plan[pc] == ncode.FuseNone && np.Plan[pc+1] == ncode.FuseNone {
						np.Plan[pc] = ncode.FusePair // head with no consumed partner
						bad, badTree = np, tr
						break
					}
				}
			}
		}
	}
	if bad == nil {
		t.Fatal("no native program with two adjacent unfused instructions")
	}
	wantFinding(t, verify.CheckNCode(badTree, bad), "nvalid/fuse-unconsumed", "does not consume")
}

// planTree builds one synthetic single-block tree from an op-kind recipe so
// the plan-negative cases below control the exact instruction stream: a
// leading constant r0, then the recipe's ops wired into a simple chain off
// it. guardAdd puts every add under r0's guard.
func planTree(kinds []ir.OpKind, guardAdd bool) *ir.Tree {
	fn := &ir.Function{Name: "w"}
	tr := &ir.Tree{Fn: fn, Name: "w.t0"}
	tr.NewBlock(-1, ir.NoReg, false)
	fn.Trees = []*ir.Tree{tr}
	r0 := fn.NewReg()
	c0 := tr.NewOp(ir.OpConst, nil, r0)
	c0.Imm = ir.Value{I: 1, F: 1}
	prev := r0
	for _, k := range kinds {
		switch k {
		case ir.OpConst:
			d := fn.NewReg()
			c := tr.NewOp(ir.OpConst, nil, d)
			c.Imm = ir.Value{I: 2, F: 2}
			prev = d
		case ir.OpExit:
			ex := tr.NewOp(ir.OpExit, nil, ir.NoReg)
			ex.Exit = ir.ExitRet
		case ir.OpStore:
			tr.NewOp(ir.OpStore, []ir.Reg{r0, prev}, ir.NoReg)
		default:
			d := fn.NewReg()
			op := tr.NewOp(k, []ir.Reg{prev, r0}, d)
			if guardAdd && k == ir.OpAdd {
				op.Guard = r0
			}
			prev = d
		}
	}
	return tr
}

// TestNCodeValidatorWindowNegative corrupts the fusion plan's windows — the
// adjacent instructions each superinstruction covers — once per rule of the
// native validator, and requires the validator to name each. The pair rules
// are what stops fusion from lifting a store or a guarded op out from under
// its guard, so each case first pins the clean plan the compiler produced,
// then applies one corruption to it.
func TestNCodeValidatorWindowNegative(t *testing.T) {
	const (
		none = ncode.FuseNone
		cons = ncode.FuseConsumed
		cmpx = ncode.FuseCmpExit
		calu = ncode.FuseConstAlu
		pair = ncode.FusePair
		// The plan bytes the retired 3- and 4-wide window kinds used: a
		// stale plan carrying them must not validate.
		win3 = ncode.FusePair + 1
		win4 = ncode.FusePair + 2
	)
	// [const r0, const, add, mul, exit] tiles as const+const, add+mul.
	chain := []ir.OpKind{ir.OpConst, ir.OpAdd, ir.OpMul, ir.OpExit}
	cases := []struct {
		name     string
		recipe   []ir.OpKind
		guardAdd bool
		clean    []ncode.FuseKind
		corrupt  func(p *ncode.Prog)
		check    string
		substr   string
	}{
		{
			name: "gapped-tiling", recipe: chain,
			clean:   []ncode.FuseKind{pair, cons, pair, cons, none},
			corrupt: func(p *ncode.Prog) { p.Plan[1] = none },
			check:   "nvalid/fuse-unconsumed", substr: "head at instr 0 does not consume instr 1",
		},
		{
			name: "orphan-slot", recipe: chain,
			clean:   []ncode.FuseKind{pair, cons, pair, cons, none},
			corrupt: func(p *ncode.Prog) { p.Plan[4] = cons },
			check:   "nvalid/fuse-orphan", substr: "instr 4 marked consumed",
		},
		{
			// A squashable head would execute unconditionally.
			name: "guarded-head", recipe: chain, guardAdd: true,
			clean:   []ncode.FuseKind{pair, cons, none, none, none},
			corrupt: func(p *ncode.Prog) { p.Plan[2], p.Plan[3] = pair, cons },
			check:   "nvalid/fuse-guarded", substr: "instr 2 (add) is guarded",
		},
		{
			// A store's architectural side effect must never join a pair.
			name: "store-in-window", recipe: []ir.OpKind{ir.OpConst, ir.OpStore, ir.OpExit},
			clean:   []ncode.FuseKind{pair, cons, none, none},
			corrupt: func(p *ncode.Prog) { p.Plan[0], p.Plan[1], p.Plan[2] = none, pair, cons },
			check:   "nvalid/fuse-illegal", substr: "fuses store at instr 2",
		},
		{
			// A guarded partner would write its destination even when
			// squashed.
			name: "guarded-op-in-window", recipe: []ir.OpKind{ir.OpConst, ir.OpAdd, ir.OpExit}, guardAdd: true,
			clean:   []ncode.FuseKind{pair, cons, none, none},
			corrupt: func(p *ncode.Prog) { p.Plan[0], p.Plan[1], p.Plan[2] = none, calu, cons },
			check:   "nvalid/fuse-illegal", substr: "fuses add at instr 2",
		},
		{
			// A compare+exit whose exit is not guarded by the compare.
			name: "cmp-exit-unguarded", recipe: []ir.OpKind{ir.OpCmpEQ, ir.OpExit},
			clean:   []ncode.FuseKind{calu, cons, none},
			corrupt: func(p *ncode.Prog) { p.Plan[0], p.Plan[1], p.Plan[2] = none, cmpx, cons },
			check:   "nvalid/fuse-illegal", substr: "cmpeq does not feed the guard of exit",
		},
		{
			// A stale 4-wide window spanning the first exit.
			name: "window-spans-exit", recipe: []ir.OpKind{ir.OpCmpEQ, ir.OpExit, ir.OpExit},
			clean: []ncode.FuseKind{calu, cons, none, none},
			corrupt: func(p *ncode.Prog) {
				p.Plan[0], p.Plan[1], p.Plan[2], p.Plan[3] = win4, cons, cons, cons
			},
			check: "nvalid/fuse-kind", substr: "instr 0 has unknown fusion kind 6",
		},
		{
			name: "stale-3-wide-window", recipe: []ir.OpKind{ir.OpAdd, ir.OpMul, ir.OpExit},
			clean:   []ncode.FuseKind{calu, cons, none, none},
			corrupt: func(p *ncode.Prog) { p.Plan[0], p.Plan[1], p.Plan[2] = win3, cons, cons },
			check:   "nvalid/fuse-kind", substr: "instr 0 has unknown fusion kind 5",
		},
		{
			name: "step-count", recipe: chain,
			clean:   []ncode.FuseKind{pair, cons, pair, cons, none},
			corrupt: func(p *ncode.Prog) { p.Steps++ },
			check:   "nvalid/step-count", substr: "declares 4 steps, plan emits 3",
		},
		{
			name: "fused-count", recipe: chain,
			clean:   []ncode.FuseKind{pair, cons, pair, cons, none},
			corrupt: func(p *ncode.Prog) { p.Fused-- },
			check:   "nvalid/fused-count", substr: "declares 1 superinstructions, plan holds 2",
		},
		{
			name: "guard-count", recipe: chain, guardAdd: true,
			clean:   []ncode.FuseKind{pair, cons, none, none, none},
			corrupt: func(p *ncode.Prog) { p.NumGuarded = 0 },
			check:   "nvalid/guard-count", substr: "declares 0 guarded steps, bytecode source has 1",
		},
		{
			name: "plan-length", recipe: chain,
			clean:   []ncode.FuseKind{pair, cons, pair, cons, none},
			corrupt: func(p *ncode.Prog) { p.Plan = p.Plan[:4] },
			check:   "nvalid/plan-length", substr: "covers 4 slots for 5 instructions",
		},
		{
			name: "no-src", recipe: chain,
			clean:   []ncode.FuseKind{pair, cons, pair, cons, none},
			corrupt: func(p *ncode.Prog) { p.Src = nil },
			check:   "nvalid/no-src", substr: "retains no bytecode source",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := planTree(tc.recipe, tc.guardAdd)
			np, err := ncode.Compile(tr)
			if err != nil {
				t.Fatalf("ncode.Compile: %v", err)
			}
			wantClean(t, verify.CheckNCode(tr, np))
			if fmt.Sprint(np.Plan) != fmt.Sprint(tc.clean) {
				t.Fatalf("clean plan = %v, want %v", np.Plan, tc.clean)
			}
			tc.corrupt(np)
			wantFinding(t, verify.CheckNCode(tr, np), tc.check, tc.substr)
		})
	}
}

// TestAuditScheduleNegative corrupts list schedules in three precise ways —
// an inverted dependence arc, an oversubscribed functional unit, an
// understated cycle count — and requires the auditor to name each.
func TestAuditScheduleNegative(t *testing.T) {
	p := mustCompile(t)
	tr := anyTree(t, p)
	lat := machine.Infinite(3).LatencyFunc()
	g := ir.BuildDepGraph(tr, lat)

	t.Run("clean-baseline", func(t *testing.T) {
		for _, n := range []int{0, 1, 3} {
			wantClean(t, verify.AuditSchedule(g, sched.FromGraph(g, n), n))
		}
	})

	t.Run("arc-inversion", func(t *testing.T) {
		s := sched.FromGraph(g, 3)
		from, to, delay := -1, -1, 0
	scan:
		for i := range g.Succ {
			for _, e := range g.Succ[i] {
				if e.Delay > 0 {
					from, to, delay = i, e.To, e.Delay
					break scan
				}
			}
		}
		if from < 0 {
			t.Fatal("no positive-delay dependence arc in the test tree")
		}
		s.Issue[to] = s.Issue[from] + int64(delay) - 1
		s.Comp[to] = s.Issue[to] + int64(g.Latency(to))
		wantFinding(t, verify.AuditSchedule(g, s, 3), "sched/arc-order", "before")
	})

	t.Run("fu-oversubscription", func(t *testing.T) {
		s := sched.FromGraph(g, 1)
		if len(s.Issue) < 2 {
			t.Fatal("test tree too small")
		}
		// On a 1-FU machine every issue cycle is distinct; aligning any two
		// ops oversubscribes the unit.
		s.Issue[1] = s.Issue[0]
		s.Comp[1] = s.Issue[1] + int64(g.Latency(1))
		wantFinding(t, verify.AuditSchedule(g, s, 1), "sched/fu-oversubscribed", "on 1 FUs")
	})

	t.Run("understated-length", func(t *testing.T) {
		s := sched.FromGraph(g, 0) // ASAP: length equals the critical path
		max := s.Length()
		for i := range s.Comp {
			if s.Comp[i] != max {
				continue
			}
			if s.Issue[i] == 0 {
				t.Fatal("critical op issues at cycle 0; test tree unsuitable")
			}
			s.Issue[i]--
			s.Comp[i]--
		}
		wantFinding(t, verify.AuditSchedule(g, s, 0), "sched/length-understated", "critical path")
	})
}
