package ir

import (
	"math/rand"
	"reflect"
	"testing"
)

// RefBuildDepGraph is the reference construction BuildDepGraph (withArcs)
// and BuildRegDepGraph are pinned to: for every register read and every
// destination it scans backwards over each earlier op, and it adds the arc
// edges by cloning each touched list of the register graph and appending.
func RefBuildDepGraph(t *Tree, lat LatencyFunc, withArcs bool) *DepGraph {
	n := len(t.Ops)
	g := &DepGraph{Tree: t, Lat: lat, Succ: make([][]DepEdge, n), Pred: make([][]DepEdge, n), lat: make([]int, n)}
	for i, op := range t.Ops {
		g.lat[i] = lat(op)
	}
	addEdge := func(from, to, delay int) {
		g.Succ[from] = append(g.Succ[from], DepEdge{To: to, Delay: delay})
		g.Pred[to] = append(g.Pred[to], DepEdge{To: from, Delay: delay})
	}
	coexecute := func(a, b *Op) bool {
		return t.OnPath(a.Block, b.Block) || t.OnPath(b.Block, a.Block)
	}

	var regBuf, prevBuf []Reg
	lastPrint := -1
	for i, op := range t.Ops {
		regBuf = opReads(op, regBuf)
		for _, r := range regBuf {
			for j := i - 1; j >= 0; j-- {
				def := t.Ops[j]
				if def.Dest != r || !coexecute(def, op) {
					continue
				}
				addEdge(j, i, g.lat[j])
				if !def.IsGuarded() {
					break
				}
			}
		}
		if op.Dest != NoReg {
			r := op.Dest
			for j := i - 1; j >= 0; j-- {
				prev := t.Ops[j]
				if !coexecute(prev, op) {
					continue
				}
				prevBuf = opReads(prev, prevBuf)
				for _, pr := range prevBuf {
					if pr == r {
						addEdge(j, i, 0)
						break
					}
				}
				if prev.Dest == r {
					if !guardsDisjoint(t, prev, op) {
						addEdge(j, i, max(g.lat[j]-g.lat[i]+1, 0))
					}
					if !prev.IsGuarded() {
						break
					}
				}
			}
		}
		if op.Kind == OpPrint {
			if lastPrint >= 0 {
				addEdge(lastPrint, i, 1)
			}
			lastPrint = i
		}
	}
	if !withArcs || len(t.Arcs) == 0 {
		return g
	}

	ng := &DepGraph{Tree: t, Lat: lat, Succ: append([][]DepEdge(nil), g.Succ...), Pred: append([][]DepEdge(nil), g.Pred...), lat: g.lat}
	ownSucc := make([]bool, n)
	ownPred := make([]bool, n)
	addArc := func(from, to, delay int) {
		if !ownSucc[from] {
			ng.Succ[from] = append([]DepEdge(nil), ng.Succ[from]...)
			ownSucc[from] = true
		}
		if !ownPred[to] {
			ng.Pred[to] = append([]DepEdge(nil), ng.Pred[to]...)
			ownPred[to] = true
		}
		ng.Succ[from] = append(ng.Succ[from], DepEdge{To: to, Delay: delay})
		ng.Pred[to] = append(ng.Pred[to], DepEdge{To: from, Delay: delay})
	}
	for _, a := range t.Arcs {
		from, to := a.From.Seq, a.To.Seq
		switch a.Kind {
		case DepRAW:
			addArc(from, to, g.lat[from])
		case DepWAR:
			addArc(from, to, 1-g.lat[to])
		case DepWAW:
			addArc(from, to, 1)
		}
	}
	return ng
}

// randomTree builds a tree that stresses every edge class: few registers,
// so definitions kill, guard and reread one another; random blocks and
// guards of both polarities, some produced by complementary BAnd/BAndNot
// pairs; prints; and the conservative arcs of its loads and stores.
func randomTree(r *rand.Rand) *Tree {
	fn := &Function{Name: "rnd"}
	t := &Tree{Fn: fn, Name: "rnd.t0"}
	fn.Trees = []*Tree{t}
	t.NewBlock(-1, NoReg, false)
	for b := 1; b < 1+r.Intn(5); b++ {
		t.NewBlock(r.Intn(b), Reg(r.Intn(6)), r.Intn(2) == 0)
	}
	fn.NumRegs = 6
	reg := func() Reg { return Reg(r.Intn(6)) }
	kinds := []OpKind{OpConst, OpMove, OpAdd, OpMul, OpBAnd, OpBAndNot, OpLoad, OpStore, OpPrint}
	for i, n := 0, 4+r.Intn(40); i < n; i++ {
		var op *Op
		switch k := kinds[r.Intn(len(kinds))]; k {
		case OpConst:
			op = t.NewOp(k, nil, reg())
		case OpMove, OpLoad:
			op = t.NewOp(k, []Reg{reg()}, reg())
		case OpStore:
			op = t.NewOp(k, []Reg{reg(), reg()}, NoReg)
		case OpPrint:
			op = t.NewOp(k, []Reg{reg()}, NoReg)
		default:
			op = t.NewOp(k, []Reg{reg(), reg()}, reg())
		}
		op.Block = r.Intn(len(t.Blocks))
		if r.Intn(3) == 0 {
			op.Guard, op.GuardNeg = reg(), r.Intn(2) == 0
		}
	}
	ex := t.NewOp(OpExit, nil, NoReg)
	ex.Exit = ExitRet
	t.BuildMemArcs()
	return t
}

// TestDepGraphMatchesReferenceOnRandomTrees is TestDepGraphMatchesReference
// over random trees, which reach the cases the suite's trees rarely do.
func TestDepGraphMatchesReferenceOnRandomTrees(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		tr := randomTree(r)
		for _, withArcs := range []bool{false, true} {
			got := BuildRegDepGraph(tr, unitLat)
			if withArcs {
				got = BuildDepGraph(tr, unitLat)
			}
			want := RefBuildDepGraph(tr, unitLat, withArcs)
			if !reflect.DeepEqual(got.Succ, want.Succ) || !reflect.DeepEqual(got.Pred, want.Pred) {
				t.Fatalf("tree %d (arcs %v) differs from the reference:\n%s\ngot  pred %v\nwant pred %v", i, withArcs, tr, got.Pred, want.Pred)
			}
		}
	}
}
