package verify

// This file is verification layer 4b: the translation validator for the
// native tier. A native program is closure chains lowered through the
// bytecode stream under a fusion plan of pairwise superinstructions, so
// validation has two halves: the retained bytecode source is validated
// against the tree with CheckBCode, and the plan's tiling legality is
// re-derived instruction by instruction from an independent copy of the
// fusion catalog. The tiling invariants:
//
//   - pairs cover the word stream exactly — every head consumes exactly the
//     following slot, every consumed slot follows a head;
//   - every head is unguarded and destination-writing, and every pair is in
//     the catalog: a compare feeding the guard of the exit it consumes, a
//     constant feeding an operand of an unguarded ALU or compare, or an
//     unguarded hot pair — never a store, print or guarded op as a partner,
//     so fusion can never lift an alias-side side effect out from under its
//     guard.
//
// A plan entry the catalog cannot justify means the emitter built a closure
// whose semantics nobody proved. The chain lengths the cache counters report
// (Steps, Fused) and the commit-bit width (NumGuarded) are recomputed from
// the plan and compared.

import (
	"fmt"

	"specdis/internal/bcode"
	"specdis/internal/ir"
	"specdis/internal/ncode"
)

// CheckNCode validates one compiled native program against its source tree.
// A nil program is vacuously valid (the tree runs on the reference walker).
func CheckNCode(t *ir.Tree, p *ncode.Prog) []Finding {
	if p == nil {
		return nil
	}
	c := &bcodeChecker{t: t, fn: t.Fn, p: p.Src}
	c.fail = func(check, format string, args ...any) {
		c.out = append(c.out, Finding{
			Check: check,
			Func:  c.fn.Name,
			Tree:  fmt.Sprintf("T%d(%s)", t.ID, t.Name),
			Msg:   fmt.Sprintf(format, args...),
		})
	}
	if p.Src == nil {
		c.fail("nvalid/no-src", "native program retains no bytecode source; nothing to validate against")
		return c.out
	}
	c.run()

	code := p.Src.Code
	if p.NumGuarded != p.Src.NumGuarded {
		c.fail("nvalid/guard-count", "native program declares %d guarded steps, bytecode source has %d", p.NumGuarded, p.Src.NumGuarded)
	}
	if len(p.Plan) != len(code) {
		c.fail("nvalid/plan-length", "fusion plan covers %d slots for %d instructions", len(p.Plan), len(code))
		return c.out
	}

	steps, fused := 0, 0
	for pc := 0; pc < len(p.Plan); pc++ {
		switch k := p.Plan[pc]; k {
		case ncode.FuseNone:
			// An unguarded nop emits no closure; everything else emits one.
			if !(code[pc].Op == bcode.Nop && code[pc].Guard < 0) {
				steps++
			}
		case ncode.FuseConsumed:
			c.fail("nvalid/fuse-orphan", "instr %d marked consumed without a preceding superinstruction head", pc)
		case ncode.FuseCmpExit, ncode.FuseConstAlu, ncode.FusePair:
			steps++
			fused++
			// The head must consume the following slot: a gap is a
			// mis-tiled plan (the emitter and the plan disagree about which
			// instructions the closure executes). On a gap, resume at the
			// slot the head did not consume.
			if pc+1 >= len(code) || p.Plan[pc+1] != ncode.FuseConsumed {
				c.fail("nvalid/fuse-unconsumed", "superinstruction head at instr %d does not consume instr %d", pc, pc+1)
				continue
			}
			c.checkFusion(pc, k)
			pc++
		default:
			c.fail("nvalid/fuse-kind", "instr %d has unknown fusion kind %d", pc, int(k))
		}
	}
	if p.Steps != steps {
		c.fail("nvalid/step-count", "native program declares %d steps, plan emits %d", p.Steps, steps)
	}
	if p.Fused != fused {
		c.fail("nvalid/fused-count", "native program declares %d superinstructions, plan holds %d", p.Fused, fused)
	}
	return c.out
}

// checkFusion re-derives the legality of one pairwise superinstruction head
// from the validator's own copy of the fusion preconditions.
func (c *bcodeChecker) checkFusion(pc int, k ncode.FuseKind) {
	code := c.p.Code
	in, nx := &code[pc], &code[pc+1]
	if in.Guard >= 0 || in.Dest < 0 {
		c.fail("nvalid/fuse-guarded", "superinstruction head at instr %d (%s) is guarded or has no destination", pc, in.Op)
		return
	}
	if k == ncode.FuseCmpExit {
		if !vIsCmp(in.Op) || nx.Op != bcode.Exit || nx.Guard != in.Dest {
			c.fail("nvalid/fuse-illegal", "compare+exit fusion at instr %d: %s does not feed the guard of %s", pc, in.Op, nx.Op)
		}
		return
	}
	// Any other partner is unguarded and writes a destination: a store, a
	// print or a guarded op never executes inside a superinstruction.
	if nx.Guard >= 0 || nx.Dest < 0 {
		c.fail("nvalid/fuse-illegal", "superinstruction at instr %d fuses %s at instr %d, which is guarded or has no destination", pc, nx.Op, pc+1)
		return
	}
	switch k {
	case ncode.FuseConstAlu:
		if in.Op != bcode.Const || !vFusableAlu(nx.Op) || (nx.A != in.Dest && nx.B != in.Dest) {
			c.fail("nvalid/fuse-illegal", "const+arith fusion at instr %d: %s does not feed an operand of %s", pc, in.Op, nx.Op)
		}
	case ncode.FusePair:
		if !vPairable(in.Op, nx.Op) {
			c.fail("nvalid/fuse-illegal", "pair fusion at instr %d: %s/%s is not in the hot-pair catalog", pc, in.Op, nx.Op)
		}
	}
}

// vIsCmp, vFusableAlu and vPairable are the validator's independent copies
// of the fusion catalog (see the file comment on re-derivation).

func vIsCmp(op bcode.Op) bool {
	switch op {
	case bcode.CmpEQ, bcode.CmpNE, bcode.CmpLT, bcode.CmpLE, bcode.CmpGT, bcode.CmpGE,
		bcode.FCmpEQ, bcode.FCmpNE, bcode.FCmpLT, bcode.FCmpLE, bcode.FCmpGT, bcode.FCmpGE:
		return true
	default:
		return false
	}
}

func vFusableAlu(op bcode.Op) bool {
	switch op {
	case bcode.Add, bcode.Sub, bcode.Mul, bcode.And, bcode.Or, bcode.Xor,
		bcode.Shl, bcode.Shr,
		bcode.CmpEQ, bcode.CmpNE, bcode.CmpLT, bcode.CmpLE, bcode.CmpGT, bcode.CmpGE,
		bcode.FAdd, bcode.FSub, bcode.FMul, bcode.FDiv,
		bcode.FCmpEQ, bcode.FCmpNE, bcode.FCmpLT, bcode.FCmpLE, bcode.FCmpGT, bcode.FCmpGE:
		return true
	default:
		return false
	}
}

func vPairable(op1, op2 bcode.Op) bool {
	switch op1 {
	case bcode.Const:
		return op2 == bcode.Const
	case bcode.Move:
		return op2 == bcode.Move
	case bcode.Add, bcode.Sub:
		switch op2 {
		case bcode.Add, bcode.Sub, bcode.Mul, bcode.Load:
			return true
		default:
			return false
		}
	case bcode.Load:
		switch op2 {
		case bcode.Add, bcode.Sub, bcode.Load, bcode.FMul, bcode.FAdd, bcode.FSub:
			return true
		default:
			return false
		}
	case bcode.FMul, bcode.FAdd, bcode.FSub:
		switch op2 {
		case bcode.FMul, bcode.FAdd, bcode.FSub:
			return true
		default:
			return false
		}
	default:
		return false
	}
}
