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
// automatic fallback for any tree the compilers decline.
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

// execBC executes one tree through its compiled bytecode, mirroring execTree
// exactly: same operation accounting, commit bits, trace events, pricing and
// profiling. Trees the compiler declined fall back to the tree walker.
func (r *Runner) execBC(t *ir.Tree, regs []ir.Value) (*ir.Op, error) {
	c, err := r.ctx(t)
	if err != nil {
		return nil, err
	}
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
	takenSeq, dupSeq, ncommit := c.bc.Exec(&c.benv)
	return r.finishPacked(t, c, takenSeq, dupSeq, ncommit)
}

// finishPacked completes one compiled-engine tree execution — shared by the
// bytecode and native tiers, whose executors both report a (taken, dup,
// ncommit) triple over packed commit bits: committed-op accounting, trace
// recording, pricing, and profiling accumulation, all identical to the tree
// walker's.
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
	if len(r.times) > 0 {
		r.priceBits(c, c.exitOf[takenSeq])
	}
	if r.Prof != nil {
		r.profileExec(c, c.exitOf[takenSeq])
	}
	return taken, nil
}

// priceBits is the bytecode counterpart of price: the commit pattern arrives
// already packed (the executor maintains the bits), so the memo key is
// assembled straight from the bit bytes. Keys and priced times are identical
// to the tree walker's — bit k is the k-th guarded op in Seq order on both
// paths.
func (r *Runner) priceBits(c *treeCtx, exitIdx int) {
	bits := c.bits
	var times []int64
	if c.memoInt != nil {
		var b uint32
		switch len(bits) {
		case 0:
		case 1:
			b = uint32(bits[0])
		case 2:
			b = uint32(bits[0]) | uint32(bits[1])<<8
		default:
			b = uint32(bits[0]) | uint32(bits[1])<<8 | uint32(bits[2])<<16
		}
		key := b | uint32(exitIdx)<<24
		var ok bool
		times, ok = c.memoInt[key]
		if !ok {
			times = priceBitsTables(c.priceShape, c.comp, c.base, bits, exitIdx)
			c.memoInt[key] = times
		}
	} else {
		copy(c.mask, bits)
		c.mask[len(c.mask)-1] = byte(exitIdx)
		var ok bool
		times, ok = c.memo[string(c.mask)]
		if !ok {
			times = priceBitsTables(c.priceShape, c.comp, c.base, bits, exitIdx)
			c.memo[string(c.mask)] = times
		}
	}
	for pi, dt := range times {
		r.times[pi] += dt
	}
}

// priceBitsTables computes the per-plan time of one packed commit pattern:
// the maximum completion cycle over the committed on-path ops, floored by
// the per-exit base over the always-committing ops. Shared by the bytecode
// executor's memo misses and the trace Replayer.
func priceBitsTables(s *priceShape, comp, base [][]int64, bits []byte, exitIdx int) []int64 {
	times := make([]int64, len(comp))
	for pi, cp := range comp {
		max := base[pi][exitIdx]
		for k, i := range s.guarded {
			if bits[k>>3]&(1<<uint(k&7)) != 0 && s.onPath[i][exitIdx] && cp[i] > max {
				max = cp[i]
			}
		}
		times[pi] = max
	}
	return times
}

// bcodeProg resolves the tree's compiled bytecode through the Runner's cache
// (creating a private cache on first use when the caller supplied none).
func (r *Runner) bcodeProg(t *ir.Tree) *bcode.Prog {
	if r.BCode == nil {
		r.BCode = bcode.NewCache(nil)
	}
	return r.BCode.Get(t)
}
