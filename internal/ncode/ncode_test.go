package ncode_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"specdis/internal/bcode"
	"specdis/internal/compile"
	"specdis/internal/ir"
	"specdis/internal/ncode"
)

// newTree returns an empty single-block tree inside a fresh function.
func newTree() (*ir.Function, *ir.Tree) {
	fn := &ir.Function{Name: "f"}
	tr := &ir.Tree{Fn: fn, Name: "f.t0"}
	tr.NewBlock(-1, ir.NoReg, false)
	fn.Trees = []*ir.Tree{tr}
	return fn, tr
}

// constOp appends a constant op.
func constOp(fn *ir.Function, tr *ir.Tree, v ir.Value) ir.Reg {
	r := fn.NewReg()
	op := tr.NewOp(ir.OpConst, nil, r)
	op.Imm = v
	return r
}

func iv(i int64) ir.Value   { return ir.Value{I: i, F: float64(i)} }
func fv(f float64) ir.Value { return ir.Value{I: int64(f), F: f} }

// state is the complete observable outcome of one tree execution.
type state struct {
	taken, dup int
	ncommit    int64
	regs, mem  []ir.Value
	bits       []byte
	committed  []bool
	addrs      []int64
	printed    []string
}

// execBC runs the tree on the bytecode engine.
func execBC(t *testing.T, tr *ir.Tree, regs, mem []ir.Value) *state {
	t.Helper()
	p, err := bcode.Compile(tr)
	if err != nil {
		t.Fatalf("bcode.Compile: %v", err)
	}
	s := newState(tr, regs, mem, p.NumGuarded)
	env := bcode.Env{
		Regs: s.regs, Mem: s.mem, Bits: s.bits, Print: s.print,
		Committed: s.committed, Addrs: s.addrs,
	}
	s.taken, s.dup, s.ncommit = p.Exec(&env)
	return s
}

// execNC runs the tree on the native closure-chain engine.
func execNC(t *testing.T, tr *ir.Tree, regs, mem []ir.Value) *state {
	t.Helper()
	p, err := ncode.Compile(tr)
	if err != nil {
		t.Fatalf("ncode.Compile: %v", err)
	}
	s := newState(tr, regs, mem, p.NumGuarded)
	env := ncode.Env{
		Regs: s.regs, Mem: s.mem, Bits: s.bits, Print: s.print,
		Committed: s.committed, Addrs: s.addrs,
	}
	s.taken, s.dup, s.ncommit = p.Exec(&env)
	return s
}

// newState returns a state holding copies of regs and mem, with commit bits
// for nguarded instructions and the sample tables every execution fills.
func newState(tr *ir.Tree, regs, mem []ir.Value, nguarded int) *state {
	return &state{
		regs:      append([]ir.Value(nil), regs...),
		mem:       append([]ir.Value(nil), mem...),
		bits:      make([]byte, (nguarded+7)/8),
		committed: make([]bool, len(tr.Ops)),
		addrs:     make([]int64, len(tr.Ops)),
	}
}

// print records one committed print.
func (s *state) print(v ir.Value, isFloat bool) {
	s.printed = append(s.printed, fmt.Sprint(v, isFloat))
}

// render flattens a state for comparison. NaN renders as a stable token, so
// equality survives values reflect.DeepEqual would reject (NaN != NaN).
func render(s *state) string { return fmt.Sprintf("%+v", s) }

// diff runs the tree on both engines and fails on any observable
// divergence, samples included. It returns the native state.
func diff(t *testing.T, tr *ir.Tree, regs, mem []ir.Value) *state {
	t.Helper()
	bc := execBC(t, tr, regs, mem)
	nc := execNC(t, tr, regs, mem)
	if render(bc) != render(nc) {
		t.Fatalf("engines diverged\nbcode: %+v\nncode: %+v", bc, nc)
	}
	return nc
}

// TestFusionPlan pins the pairwise tiler on a tree that exercises the plan
// shapes in order: the two leading constants fuse as a const+const pair, the
// add (whose next instruction is a compare, outside the hot-pair catalog)
// stays single, the compare fuses with the exit its result guards, and the
// negated exit is left alone.
func TestFusionPlan(t *testing.T) {
	fn, tr := newTree()
	r0 := constOp(fn, tr, iv(10))
	r1 := constOp(fn, tr, iv(3))
	r2 := fn.NewReg()
	tr.NewOp(ir.OpAdd, []ir.Reg{r0, r1}, r2)
	r3 := fn.NewReg()
	tr.NewOp(ir.OpCmpLT, []ir.Reg{r2, r0}, r3)
	exTrue := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	exTrue.Exit, exTrue.Guard = ir.ExitRet, r3
	exFalse := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	exFalse.Exit, exFalse.Guard, exFalse.GuardNeg = ir.ExitRet, r3, true

	p, err := ncode.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	// const+const, the add alone, cmplt+exit, the negated exit alone.
	want := []ncode.FuseKind{
		ncode.FusePair, ncode.FuseConsumed,
		ncode.FuseNone,
		ncode.FuseCmpExit, ncode.FuseConsumed,
		ncode.FuseNone,
	}
	if fmt.Sprint(p.Plan) != fmt.Sprint(want) {
		t.Errorf("Plan = %v, want %v", p.Plan, want)
	}
	// 6 instructions, 2 consumed by the pairs: 4 closures.
	if p.Fused != 2 || p.Steps != 4 {
		t.Errorf("Fused = %d, Steps = %d, want 2, 4", p.Fused, p.Steps)
	}

	// 10+3 < 10 is false: the negated exit commits.
	s := diff(t, tr, make([]ir.Value, fn.NumRegs), make([]ir.Value, 8))
	if s.taken != exFalse.Seq || s.dup != -1 {
		t.Errorf("taken=%d dup=%d, want taken=%d dup=-1", s.taken, s.dup, exFalse.Seq)
	}
	if s.regs[r2].I != 13 || s.regs[r3].I != 0 {
		t.Errorf("fused results: add=%d cmp=%d, want 13, 0", s.regs[r2].I, s.regs[r3].I)
	}
}

// TestCmpExitFusion proves the compare+exit superinstruction resolves the
// exit exactly as the unfused stream would — the guard is read after the
// compare's result lands — under both guard polarities, and that a second
// committed exit after the fused one is still reported as a duplicate.
func TestCmpExitFusion(t *testing.T) {
	fn, tr := newTree()
	r0 := constOp(fn, tr, iv(4))
	r1 := fn.NewReg()
	tr.NewOp(ir.OpAdd, []ir.Reg{r0, r0}, r1)
	r2 := fn.NewReg()
	cmp := tr.NewOp(ir.OpCmpGT, []ir.Reg{r1, r0}, r2) // 8 > 4: true
	ex := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	ex.Exit, ex.Guard = ir.ExitRet, r2
	exTail := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	exTail.Exit = ir.ExitRet

	for _, neg := range []bool{false, true} {
		ex.GuardNeg = neg
		p, err := ncode.Compile(tr)
		if err != nil {
			t.Fatal(err)
		}
		if p.Plan[cmp.Seq] != ncode.FuseCmpExit || p.Plan[ex.Seq] != ncode.FuseConsumed {
			t.Fatalf("neg=%v: Plan = %v, want compare+exit at instr %d", neg, p.Plan, cmp.Seq)
		}
		s := diff(t, tr, make([]ir.Value, fn.NumRegs), make([]ir.Value, 8))
		if !neg && (s.taken != ex.Seq || s.dup != exTail.Seq) {
			// The fused exit commits, so the unguarded tail is a duplicate.
			t.Errorf("taken=%d dup=%d, want taken=%d dup=%d", s.taken, s.dup, ex.Seq, exTail.Seq)
		}
		if neg && (s.taken != exTail.Seq || s.dup != -1) {
			// The fused exit squashes and the tail commits.
			t.Errorf("negated: taken=%d dup=%d, want taken=%d dup=-1", s.taken, s.dup, exTail.Seq)
		}
	}
}

// TestPairAddressForwarding exercises the add/sub + load superinstruction
// (aluLoad), with the load both consuming the computed sum as its address —
// the closure forwards it without a register round trip — and reading an
// unrelated address register, including the address sample. The offset constant precedes a Div (outside every catalog), so it
// cannot fuse into the add as const+arith and the add is free to pair with
// the load.
func TestPairAddressForwarding(t *testing.T) {
	for _, sub := range []bool{false, true} {
		for _, forward := range []bool{false, true} {
			fn, tr := newTree()
			rA := constOp(fn, tr, iv(21))
			rB := constOp(fn, tr, iv(6))
			off := constOp(fn, tr, iv(2))
			base := fn.NewReg()
			tr.NewOp(ir.OpDiv, []ir.Reg{rA, rB}, base) // 3
			addr := fn.NewReg()
			kind := ir.OpAdd
			if sub {
				kind = ir.OpSub
			}
			alu := tr.NewOp(kind, []ir.Reg{base, off}, addr)
			from := base
			if forward {
				from = addr
			}
			rd := fn.NewReg()
			ld := tr.NewOp(ir.OpLoad, []ir.Reg{from}, rd)
			tr.NewOp(ir.OpStore, []ir.Reg{rB, rd}, ir.NoReg)
			ex := tr.NewOp(ir.OpExit, nil, ir.NoReg)
			ex.Exit = ir.ExitRet

			p, err := ncode.Compile(tr)
			if err != nil {
				t.Fatal(err)
			}
			// const+const pair up front, then the ALU+load pair.
			if p.Fused != 2 || p.Plan[alu.Seq] != ncode.FusePair || p.Plan[ld.Seq] != ncode.FuseConsumed {
				t.Errorf("sub=%v forward=%v: Fused = %d, Plan = %v, want 2 with an ALU+load pair at instr %d",
					sub, forward, p.Fused, p.Plan, alu.Seq)
			}
			mem := make([]ir.Value, 8)
			for i := range mem {
				mem[i] = iv(int64(100 + i))
			}
			s := diff(t, tr, make([]ir.Value, fn.NumRegs), mem)
			wantAddr := int64(3)
			switch {
			case forward && sub:
				wantAddr = 1
			case forward:
				wantAddr = 5
			}
			if s.regs[rd].I != 100+wantAddr {
				t.Errorf("sub=%v forward=%v: loaded %d, want %d", sub, forward, s.regs[rd].I, 100+wantAddr)
			}
			if s.addrs[ld.Seq] != wantAddr {
				t.Errorf("sub=%v forward=%v: sampled addr = %d, want %d", sub, forward, s.addrs[ld.Seq], wantAddr)
			}
		}
	}
}

// TestPairLongChain tiles a 40-op chain that cycles through the integer and
// floating-point shapes of the hot-pair catalog, each pair feeding its own
// accumulator, and proves the tiler covers it with pairs end to end while
// both engines agree bit for bit.
func TestPairLongChain(t *testing.T) {
	fn, tr := newTree()
	ri := constOp(fn, tr, iv(3))
	rf := constOp(fn, tr, fv(1.5))
	ai, af := ri, rf
	shapes := [][2]ir.OpKind{
		{ir.OpAdd, ir.OpSub}, {ir.OpFMul, ir.OpFAdd},
		{ir.OpSub, ir.OpMul}, {ir.OpFSub, ir.OpFMul},
		{ir.OpAdd, ir.OpAdd}, {ir.OpFAdd, ir.OpFSub},
		{ir.OpSub, ir.OpAdd}, {ir.OpFMul, ir.OpFMul},
		{ir.OpAdd, ir.OpMul}, {ir.OpFSub, ir.OpFAdd},
	}
	for i := 0; i < 20; i++ {
		for _, k := range shapes[i%len(shapes)] {
			d := fn.NewReg()
			if i%2 == 0 {
				tr.NewOp(k, []ir.Reg{ai, ri}, d)
				ai = d
			} else {
				tr.NewOp(k, []ir.Reg{af, rf}, d)
				af = d
			}
		}
	}
	ex := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	ex.Exit = ir.ExitRet

	p, err := ncode.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The constant pair, twenty chain pairs, and the exit alone: 43
	// instructions in 22 closures.
	if p.Fused != 21 || p.Steps != 22 {
		t.Errorf("Fused = %d, Steps = %d, want 21, 22", p.Fused, p.Steps)
	}
	s := diff(t, tr, make([]ir.Value, fn.NumRegs), make([]ir.Value, 8))
	if s.regs[ai].I == 0 || s.regs[af].F == 0 {
		t.Errorf("chain results unexpectedly zero: int %d, float %g", s.regs[ai].I, s.regs[af].F)
	}
}

// TestFusionSkipsGuardedAndDiv pins the fusion pass's exclusions: guarded
// members and Div/Rem consumers never fuse.
func TestFusionSkipsGuardedAndDiv(t *testing.T) {
	fn, tr := newTree()
	g := constOp(fn, tr, iv(1))
	r1 := constOp(fn, tr, iv(6))
	r2 := fn.NewReg()
	div := tr.NewOp(ir.OpDiv, []ir.Reg{r1, r1}, r2) // Div consumer: no fusion
	_ = div
	r3 := fn.NewReg()
	cmp := tr.NewOp(ir.OpCmpEQ, []ir.Reg{r2, r1}, r3)
	cmp.Guard = g // guarded compare: no compare+exit fusion
	ex := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	ex.Exit = ir.ExitRet

	p, err := ncode.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The two setup constants fuse as a const+const pair; the Div consumer
	// and the guarded compare must not fuse with anything.
	if p.Fused != 1 {
		t.Errorf("Fused = %d, want 1 (guarded members and Div consumers are excluded)", p.Fused)
	}
	diff(t, tr, make([]ir.Value, fn.NumRegs), make([]ir.Value, 8))
}

// TestSquashedMemorySampling proves the chains still sample the speculative
// address of squashed guarded loads and stores — the dependence profiler
// observes every issued access, committed or not — while the architectural
// write stays suppressed. This covers the guarded memory closures on a wild
// negative address, which the sample records as computed, before the
// bounds clamp: an address compare sees that value.
func TestSquashedMemorySampling(t *testing.T) {
	fn, tr := newTree()
	g := constOp(fn, tr, iv(0)) // guard register: false
	addr := constOp(fn, tr, iv(-5))
	val := constOp(fn, tr, iv(99))
	rd := fn.NewReg()
	ld := tr.NewOp(ir.OpLoad, []ir.Reg{addr}, rd)
	ld.Guard = g
	st := tr.NewOp(ir.OpStore, []ir.Reg{addr, val}, ir.NoReg)
	st.Guard = g
	ex := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	ex.Exit = ir.ExitRet

	mem := make([]ir.Value, 8)
	mem[0] = iv(1234)
	regs := make([]ir.Value, fn.NumRegs)
	regs[rd] = iv(-1) // sentinel: must survive the squashed load

	nc := diff(t, tr, regs, mem)
	// The sample must record the address operand -5 unclamped (the clamp
	// would map it to word 0) even though the guard squashed both accesses.
	if nc.addrs[ld.Seq] != -5 || nc.addrs[st.Seq] != -5 {
		t.Errorf("squashed access addrs = %d/%d, want -5/-5", nc.addrs[ld.Seq], nc.addrs[st.Seq])
	}
	if nc.committed[ld.Seq] || nc.committed[st.Seq] {
		t.Error("squashed accesses marked committed")
	}
	if nc.regs[rd].I != -1 {
		t.Errorf("squashed load wrote its destination: %d", nc.regs[rd].I)
	}
	if nc.mem[0].I != 1234 {
		t.Errorf("squashed store wrote memory: %d", nc.mem[0].I)
	}
	if nc.ncommit != 0 || nc.bits[0] != 0 {
		t.Errorf("squashed accesses committed: ncommit=%d bits=%v", nc.ncommit, nc.bits)
	}
}

// TestDoubleExit proves a second committed exit stops the chain and reports
// the duplicate, identically on both engines — including through the
// compare+exit superinstruction.
func TestDoubleExit(t *testing.T) {
	fn, tr := newTree()
	g := constOp(fn, tr, iv(1))
	ex1 := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	ex1.Exit, ex1.Guard = ir.ExitRet, g
	r2 := fn.NewReg()
	tr.NewOp(ir.OpCmpEQ, []ir.Reg{g, g}, r2) // true: fused exit commits too
	ex2 := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	ex2.Exit, ex2.Guard = ir.ExitRet, r2

	s := diff(t, tr, make([]ir.Value, fn.NumRegs), make([]ir.Value, 8))
	if s.taken != ex1.Seq || s.dup != ex2.Seq {
		t.Errorf("taken=%d dup=%d, want taken=%d dup=%d", s.taken, s.dup, ex1.Seq, ex2.Seq)
	}
}

// TestGuardedLongTail exercises the generic guarded-pure closure, including
// the guarded-constant pool-index hazard (Const's A operand is a pool index,
// not a register) and one-operand forms, under both guard polarities.
func TestGuardedLongTail(t *testing.T) {
	fn, tr := newTree()
	g := constOp(fn, tr, iv(1))
	rc := fn.NewReg()
	gc := tr.NewOp(ir.OpConst, nil, rc) // guarded constant
	gc.Imm = iv(77)
	gc.Guard = g
	rn := fn.NewReg()
	neg := tr.NewOp(ir.OpNeg, []ir.Reg{rc}, rn) // guarded one-operand op
	neg.Guard = g
	rs := fn.NewReg()
	squash := tr.NewOp(ir.OpConst, nil, rs) // squashed guarded constant
	squash.Imm = iv(55)
	squash.Guard, squash.GuardNeg = g, true
	ex := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	ex.Exit = ir.ExitRet

	s := diff(t, tr, make([]ir.Value, fn.NumRegs), make([]ir.Value, 8))
	if s.regs[rc].I != 77 || s.regs[rn].I != -77 {
		t.Errorf("guarded const/neg = %d/%d, want 77/-77", s.regs[rc].I, s.regs[rn].I)
	}
	if s.regs[rs].I != 0 {
		t.Errorf("squashed guarded const wrote %d", s.regs[rs].I)
	}
	if s.ncommit != 2 {
		t.Errorf("ncommit = %d, want 2", s.ncommit)
	}
}

// TestEdgeCaseArithmetic runs the non-trapping corner cases through guarded
// closures (the unguarded forms are covered by internal/sim's semantics
// battery): MinInt64 division and remainder, and NaN/±Inf float→int
// conversion.
func TestEdgeCaseArithmetic(t *testing.T) {
	fn, tr := newTree()
	g := constOp(fn, tr, iv(1))
	min := constOp(fn, tr, iv(math.MinInt64))
	m1 := constOp(fn, tr, iv(-1))
	zero := constOp(fn, tr, iv(0))
	nan := constOp(fn, tr, fv(math.NaN()))
	inf := constOp(fn, tr, fv(math.Inf(1)))

	dst := make([]ir.Reg, 5)
	for i, c := range []struct {
		kind ir.OpKind
		args []ir.Reg
	}{
		{ir.OpDiv, []ir.Reg{min, m1}},
		{ir.OpRem, []ir.Reg{min, m1}},
		{ir.OpDiv, []ir.Reg{min, zero}},
		{ir.OpCvtFI, []ir.Reg{nan}},
		{ir.OpCvtFI, []ir.Reg{inf}},
	} {
		dst[i] = fn.NewReg()
		op := tr.NewOp(c.kind, c.args, dst[i])
		op.Guard = g
	}
	ex := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	ex.Exit = ir.ExitRet

	s := diff(t, tr, make([]ir.Value, fn.NumRegs), make([]ir.Value, 8))
	want := []int64{math.MinInt64, 0, 0, 0, math.MaxInt64}
	for i, w := range want {
		if got := s.regs[dst[i]].I; got != w {
			t.Errorf("edge case %d: got %d, want %d", i, got, w)
		}
	}
}

// TestCacheCounters proves the native cache is content-addressed: one compile
// per distinct tree body, hits for identical clones, and Instrs counting
// closure steps.
func TestCacheCounters(t *testing.T) {
	fn, tr := newTree()
	constOp(fn, tr, iv(4))
	ex := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	ex.Exit = ir.ExitRet

	var ctrs bcode.Counters
	c := ncode.NewCache(&ctrs)
	p1 := c.Get(tr)
	if p1 == nil {
		t.Fatal("Get returned nil for a compilable tree")
	}
	tr2 := tr.Clone()
	tr2.PIdx = 17 // identity must not matter, only content
	if p2 := c.Get(tr2); p2 != p1 {
		t.Error("identical clone missed the cache")
	}
	if got := ctrs.Compiled.Load(); got != 1 {
		t.Errorf("Compiled = %d, want 1", got)
	}
	if got := ctrs.Hits.Load(); got != 1 {
		t.Errorf("Hits = %d, want 1", got)
	}
	if got := ctrs.Instrs.Load(); got != int64(p1.Steps) {
		t.Errorf("Instrs = %d, want %d (closure steps)", got, p1.Steps)
	}
}

// TestCacheDoesNotPinTrees is the native tier's counterpart of the bytecode
// cache test: a cached closure chain must not keep the tree it was compiled
// from (or, through Tree.Fn, that tree's program) alive.
func TestCacheDoesNotPinTrees(t *testing.T) {
	base, err := compile.Compile(`int a[4]; void main() { a[1] = a[2] + 3; print(a[1]); }`)
	if err != nil {
		t.Fatal(err)
	}
	c := ncode.NewCache(nil)
	freed := make(chan struct{})
	func() {
		prog := base.Clone()
		for _, name := range prog.Order {
			for _, tr := range prog.Funcs[name].Trees {
				if c.Get(tr) == nil {
					t.Fatalf("tree %s did not compile", tr.Name)
				}
			}
		}
		// The finalizer watches an op of the entry tree, not the tree: a tree
		// and its Function point at each other, and the runtime never
		// finalizes an object that can reach itself.
		main := prog.Funcs[prog.Main]
		runtime.SetFinalizer(main.Trees[main.Entry].Ops[0], func(*ir.Op) { close(freed) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			if c.Len() == 0 {
				t.Fatal("cache lost its entries")
			}
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("a cached compilation keeps its tree reachable after the program is dropped")
}
