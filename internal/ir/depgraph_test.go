package ir

import (
	"testing"
)

// unitLat gives every op latency 1 except loads/stores (2), mul (3).
func unitLat(op *Op) int {
	switch op.Kind {
	case OpLoad, OpStore, OpExit:
		return 2
	case OpMul:
		return 3
	}
	return 1
}

// chainTree builds: c0 = const; add = c0 + c0; mul = add * add; exit(mul).
func chainTree() (*Function, *Tree) {
	fn := &Function{Name: "chain"}
	t := &Tree{Fn: fn, Name: "chain.t0"}
	t.NewBlock(-1, NoReg, false)
	fn.Trees = []*Tree{t}
	c := t.NewOp(OpConst, nil, fn.NewReg())
	add := t.NewOp(OpAdd, []Reg{c.Dest, c.Dest}, fn.NewReg())
	mul := t.NewOp(OpMul, []Reg{add.Dest, add.Dest}, fn.NewReg())
	ex := t.NewOp(OpExit, []Reg{mul.Dest}, NoReg)
	ex.Exit = ExitRet
	return fn, t
}

func hasEdge(g *DepGraph, from, to, delay int) bool {
	for _, e := range g.Succ[from] {
		if e.To == to && e.Delay == delay {
			return true
		}
	}
	return false
}

func TestFlowDependences(t *testing.T) {
	_, tr := chainTree()
	g := BuildDepGraph(tr, unitLat)
	if !hasEdge(g, 0, 1, 1) { // const -> add, delay = lat(const) = 1
		t.Error("missing const->add edge")
	}
	if !hasEdge(g, 1, 2, 1) {
		t.Error("missing add->mul edge")
	}
	if !hasEdge(g, 2, 3, 3) { // mul -> exit, delay = lat(mul) = 3
		t.Error("missing mul->exit edge")
	}
	asap := g.ASAP()
	want := []int{0, 1, 2, 5}
	for i, w := range want {
		if asap[i] != w {
			t.Errorf("asap[%d] = %d, want %d", i, asap[i], w)
		}
	}
}

func TestGuardedDefsDoNotKill(t *testing.T) {
	fn := &Function{Name: "g"}
	tr := &Tree{Fn: fn, Name: "g.t0"}
	tr.NewBlock(-1, NoReg, false)
	r := fn.NewReg()
	cnd := fn.NewReg()
	d0 := tr.NewOp(OpConst, nil, r) // unconditional def
	d1 := tr.NewOp(OpConst, nil, r) // guarded redefinition
	d1.Guard = cnd
	use := tr.NewOp(OpAdd, []Reg{r, r}, fn.NewReg())
	ex := tr.NewOp(OpExit, nil, NoReg)
	ex.Exit = ExitRet
	g := BuildDepGraph(tr, unitLat)
	if !hasEdge(g, d1.Seq, use.Seq, 1) {
		t.Error("use must see the guarded def")
	}
	if !hasEdge(g, d0.Seq, use.Seq, 1) {
		t.Error("guarded def must not kill the unconditional one")
	}
}

func TestRegisterAntiAndOutputDeps(t *testing.T) {
	fn := &Function{Name: "a"}
	tr := &Tree{Fn: fn, Name: "a.t0"}
	tr.NewBlock(-1, NoReg, false)
	r := fn.NewReg()
	def1 := tr.NewOp(OpConst, nil, r)
	use := tr.NewOp(OpAdd, []Reg{r, r}, fn.NewReg())
	def2 := tr.NewOp(OpConst, nil, r) // redefinition after the use
	ex := tr.NewOp(OpExit, nil, NoReg)
	ex.Exit = ExitRet
	g := BuildDepGraph(tr, unitLat)
	if !hasEdge(g, use.Seq, def2.Seq, 0) {
		t.Error("missing WAR (anti) register edge with delay 0")
	}
	// Output dep: def2 must complete after def1: delay lat1 - lat2 + 1 = 1.
	if !hasEdge(g, def1.Seq, def2.Seq, 1) {
		t.Error("missing WAW (output) register edge")
	}
}

func TestDisjointGuardsSkipOutputDep(t *testing.T) {
	fn := &Function{Name: "d"}
	tr := &Tree{Fn: fn, Name: "d.t0"}
	tr.NewBlock(-1, NoReg, false)
	r := fn.NewReg()
	cnd := fn.NewReg()
	d1 := tr.NewOp(OpConst, nil, r)
	d1.Guard = cnd
	d2 := tr.NewOp(OpConst, nil, r)
	d2.Guard = cnd
	d2.GuardNeg = true
	ex := tr.NewOp(OpExit, nil, NoReg)
	ex.Exit = ExitRet
	g := BuildDepGraph(tr, unitLat)
	if hasEdge(g, d1.Seq, d2.Seq, 1) {
		t.Error("opposite-polarity guarded defs must not be ordered")
	}
}

func TestComplementaryBAndGuardsAreDisjoint(t *testing.T) {
	fn := &Function{Name: "c"}
	tr := &Tree{Fn: fn, Name: "c.t0"}
	tr.NewBlock(-1, NoReg, false)
	h := fn.NewReg()
	c := fn.NewReg()
	gp := tr.NewOp(OpBAnd, []Reg{h, c}, fn.NewReg())
	gn := tr.NewOp(OpBAndNot, []Reg{h, c}, fn.NewReg())
	r := fn.NewReg()
	d1 := tr.NewOp(OpConst, nil, r)
	d1.Guard = gp.Dest
	d2 := tr.NewOp(OpConst, nil, r)
	d2.Guard = gn.Dest
	ex := tr.NewOp(OpExit, nil, NoReg)
	ex.Exit = ExitRet
	g := BuildDepGraph(tr, unitLat)
	if hasEdge(g, d1.Seq, d2.Seq, 1) {
		t.Error("BAnd/BAndNot guarded defs must be recognized as disjoint")
	}
}

func TestMemoryArcDelays(t *testing.T) {
	fn := &Function{Name: "m"}
	tr := &Tree{Fn: fn, Name: "m.t0"}
	tr.NewBlock(-1, NoReg, false)
	addr := fn.NewReg()
	val := fn.NewReg()
	s1 := tr.NewOp(OpStore, []Reg{addr, val}, NoReg)
	l := tr.NewOp(OpLoad, []Reg{addr}, fn.NewReg())
	s2 := tr.NewOp(OpStore, []Reg{addr, val}, NoReg)
	ex := tr.NewOp(OpExit, nil, NoReg)
	ex.Exit = ExitRet
	tr.BuildMemArcs()
	g := BuildDepGraph(tr, unitLat)
	if !hasEdge(g, s1.Seq, l.Seq, 2) {
		t.Error("RAW delay should equal store latency")
	}
	if !hasEdge(g, l.Seq, s2.Seq, -1) {
		t.Error("WAR delay should be 1 - store latency")
	}
	if !hasEdge(g, s1.Seq, s2.Seq, 1) {
		t.Error("WAW delay should be 1")
	}
}

func TestPrintOrdering(t *testing.T) {
	fn := &Function{Name: "p"}
	tr := &Tree{Fn: fn, Name: "p.t0"}
	tr.NewBlock(-1, NoReg, false)
	v := fn.NewReg()
	p1 := tr.NewOp(OpPrint, []Reg{v}, NoReg)
	p2 := tr.NewOp(OpPrint, []Reg{v}, NoReg)
	ex := tr.NewOp(OpExit, nil, NoReg)
	ex.Exit = ExitRet
	g := BuildDepGraph(tr, unitLat)
	if !hasEdge(g, p1.Seq, p2.Seq, 1) {
		t.Error("prints must stay ordered")
	}
}

func TestMarkAliasSideSticky(t *testing.T) {
	op := &Op{}
	op.MarkAliasSide(false)
	if op.SpecSide != -1 {
		t.Fatalf("no-alias mark gave %d", op.SpecSide)
	}
	op.MarkAliasSide(true)
	if op.SpecSide != 1 {
		t.Fatalf("alias mark gave %d", op.SpecSide)
	}
	op.MarkAliasSide(false)
	if op.SpecSide != 1 {
		t.Fatalf("+1 must be sticky, got %d", op.SpecSide)
	}
}

func TestCloneIsDeepAndIndependent(t *testing.T) {
	_, tr := chainTree()
	tr.Ops[0].Ref = &MemRef{BaseKind: BaseGlobal, BaseSym: "a", Sub: ConstAffine(1)}
	tr.BuildMemArcs()
	c := tr.Clone()

	if len(c.Ops) != len(tr.Ops) || len(c.Blocks) != len(tr.Blocks) {
		t.Fatal("clone shape differs")
	}
	for i := range c.Ops {
		if c.Ops[i] == tr.Ops[i] {
			t.Fatal("clone shares op pointers")
		}
	}
	// Mutating the clone must not affect the original.
	c.Ops[1].Kind = OpSub
	c.Ops[0].Ref.BaseSym = "zzz"
	if tr.Ops[1].Kind != OpAdd || tr.Ops[0].Ref.BaseSym != "a" {
		t.Error("clone mutation leaked into original")
	}
	// Arc endpoints must point at cloned ops.
	fn2, tr2 := chainTree()
	_ = fn2
	tr2.Ops[0].Kind = OpStore
	tr2.Ops[0].Args = []Reg{0, 0}
	tr2.Ops[0].Dest = NoReg
	tr2.Ops[1].Kind = OpLoad
	tr2.Ops[1].Args = []Reg{0}
	tr2.BuildMemArcs()
	c2 := tr2.Clone()
	for _, a := range c2.Arcs {
		if a.From == tr2.Arcs[0].From {
			t.Fatal("cloned arc references original op")
		}
		if a.From != c2.Ops[a.From.Seq] {
			t.Fatal("cloned arc not remapped to cloned ops")
		}
	}
}
