package sim

import (
	"fmt"

	"specdis/internal/bcode"
	"specdis/internal/ir"
)

// ExecMode selects the Runner's execution backend.
type ExecMode uint8

// Execution backends. The zero value is the bytecode engine: every tree is
// lowered once to a flat register-machine program (internal/bcode) and run
// by a tight dispatch loop. The native engine lowers further, to chains of
// pre-bound closures with fused pair superinstructions (internal/ncode) —
// the fastest tier and the CLIs' default, optionally entered adaptively per
// tree via Runner.TierUp. The tree walker is the reference interpreter both
// compiled engines are differentially tested against; it also serves as the
// automatic fallback for any tree the compilers decline. Every backend
// executes, samples and records identically, and has one execution mode:
// each run samples commit outcomes and unclamped addresses, which the
// Runner folds into a profile only under Runner.Prof. None prices: a trace
// is priced afterwards by the Replayer, whichever engine recorded it.
const (
	ExecBytecode ExecMode = iota
	ExecTree
	ExecNative
)

func (m ExecMode) String() string {
	switch m {
	case ExecBytecode:
		return "bcode"
	case ExecTree:
		return "tree"
	case ExecNative:
		return "native"
	}
	return fmt.Sprintf("execmode(%d)", int(m))
}

// ParseExecMode returns the backend whose String is name: "native", "bcode"
// or "tree". Callers word their own error for any other name.
func ParseExecMode(name string) (ExecMode, bool) {
	for _, m := range []ExecMode{ExecBytecode, ExecTree, ExecNative} {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// execBC executes one tree through its compiled bytecode, mirroring execTree
// exactly: same operation accounting, commit bits, trace patterns and
// profiling. Trees the compiler declined fall back to the tree walker.
func (r *Runner) execBC(t *ir.Tree, regs []ir.Value) (*ir.Op, error) {
	c := r.ctx(t)
	if c.bc == nil {
		return r.execTree(t, regs)
	}
	if err := r.fuel(len(t.Ops)); err != nil {
		return nil, err
	}

	bits := c.bits
	for i := range bits {
		bits[i] = 0
	}
	// Everything but the register frame is bound into the per-tree Env at
	// ctx build; rewriting the other slice headers here would cost four GC
	// write barriers per execution.
	c.benv.Regs = regs
	if c.keyed != nil {
		c.keyed.snapshot(regs)
	}
	takenSeq, dupSeq, ncommit := c.bc.Exec(&c.benv)
	return r.finishPacked(t, c, takenSeq, dupSeq, ncommit)
}

// finishPacked completes one compiled-engine tree execution — shared by the
// bytecode and native tiers, whose executors both report a (taken, dup,
// ncommit) triple over packed commit bits: committed-op accounting, trace
// recording straight from the packed bits, and profiling accumulation, all
// identical to the tree walker's.
func (r *Runner) finishPacked(t *ir.Tree, c *treeCtx, takenSeq, dupSeq int, ncommit int64) (*ir.Op, error) {
	if dupSeq >= 0 {
		return nil, fmt.Errorf("tree %s: two exits taken (%%%d and %%%d)",
			t.Name, t.Ops[takenSeq].ID, t.Ops[dupSeq].ID)
	}
	if takenSeq < 0 {
		return nil, fmt.Errorf("tree %s: no exit taken", t.Name)
	}
	taken := t.Ops[takenSeq]
	r.committed += ncommit + int64(len(t.Ops)-len(c.guarded))

	if r.Rec != nil {
		r.Rec.Tree(t.PIdx, c.exitOf[takenSeq], c.bits)
	}
	if r.Prof != nil {
		r.profileExec(c, c.exitOf[takenSeq], c.bits)
	}
	return taken, nil
}

// bcodeProg resolves the tree's compiled bytecode through the Runner's cache
// (creating a private cache on first use when the caller supplied none).
func (r *Runner) bcodeProg(t *ir.Tree) *bcode.Prog {
	if r.BCode == nil {
		r.BCode = bcode.NewCache(nil)
	}
	return r.BCode.Get(t)
}
