package spd

import (
	"testing"

	"specdis/internal/ir"
)

// unitLat gives every op latency 1 except loads, stores and exits (2) and
// multiplies (3).
func unitLat(op *ir.Op) int {
	switch op.Kind {
	case ir.OpLoad, ir.OpStore, ir.OpExit:
		return 2
	case ir.OpMul:
		return 3
	}
	return 1
}

// pathTime prices one exit's path alone: q 1 gives its fully conservative
// completion time, q 0 its likely (all-no-alias) one.
func pathTime(tr *ir.Tree, exit int, q float64) float64 {
	probs := make([]float64, len(tr.Exits()))
	probs[exit] = 1
	var sh shape
	sh.build(tr, unitLat)
	p := &pricer{probs: probs, q: q}
	return p.load(tr, &sh)
}

func TestPricerRespectsBlocksAndSpecSide(t *testing.T) {
	fn := &ir.Function{Name: "pt"}
	tr := &ir.Tree{Fn: fn, Name: "pt.t0"}
	fn.Trees = []*ir.Tree{tr}
	root := tr.NewBlock(-1, ir.NoReg, false)
	cnd := fn.NewReg()
	cmp := tr.NewOp(ir.OpCmpEQ, []ir.Reg{cnd, cnd}, fn.NewReg())
	thenB := tr.NewBlock(root, cmp.Dest, false)
	elseB := tr.NewBlock(root, cmp.Dest, true)

	slow0 := tr.NewOp(ir.OpMul, []ir.Reg{cnd, cnd}, fn.NewReg()) // 3 cycles
	slow0.Block = thenB
	slow := tr.NewOp(ir.OpMul, []ir.Reg{slow0.Dest, slow0.Dest}, fn.NewReg()) // 3 more
	slow.Block = thenB
	ex1 := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	ex1.Exit = ir.ExitRet
	ex1.Block = thenB
	ex1.Guard = cmp.Dest
	ex2 := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	ex2.Exit = ir.ExitRet
	ex2.Block = elseB
	ex2.Guard = cmp.Dest
	ex2.GuardNeg = true

	// The multiplies commit only on the then-path.
	if then, other := pathTime(tr, 0, 1), pathTime(tr, 1, 1); then != 6 || other != 3 {
		t.Errorf("path times %v (then, with the multiplies) and %v (else), want 6 and 3", then, other)
	}
	if likely := pathTime(tr, 0, 0); likely != 6 {
		t.Errorf("likely then-path time %v with no alias-side op, want 6", likely)
	}
	// Tag the second multiply alias-side: the likely estimate must drop it,
	// the conservative one must keep it.
	slow.SpecSide = 1
	if likely, full := pathTime(tr, 0, 0), pathTime(tr, 0, 1); likely != 3 || full != 6 {
		t.Errorf("with an alias-side multiply: likely %v, full %v; want 3 and 6", likely, full)
	}
}
