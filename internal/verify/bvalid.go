package verify

// This file is verification layer 4a: a translation validator for the
// bytecode tier. Where layers 1–3 audit the tree IR itself, CheckBCode
// audits a compiled artifact *against* its source tree — the thing the
// simulator actually executes, and the thing the persistent artifact store
// loads back across processes. A compile bug, a stale artifact bound to the
// wrong tree, or a corrupted payload that survived the store's CRC is
// rejected statically here instead of producing wrong prices.
//
// Two passes run over the instruction stream:
//
//   - Correspondence: every instruction word is compared against the op at
//     the same index (instruction index == Seq is the tier's contract, and
//     what makes per-tree fuel accounting and Seq-indexed profiling tables
//     sound): opcode family, operand registers, destination, constant-pool
//     value, exit-target bounds, and — the SpD core — guard register, guard
//     polarity, and the commit-bit slot sequence that the trace wire format
//     and the commit-exclusion checker rely on.
//
//   - Abstract interpretation: a forward pass over the words with a four
//     point type lattice (⊥, int, float, any) proving every register read
//     has a reaching definition (parameter, other-tree def, loop-carried
//     def, or an earlier instruction) and that no integer-consuming operand
//     position reads a provably-float register. Guards additionally must
//     not be float-typed (the commit test reads the integer view).
//
// The validator deliberately re-derives the expected lowering (opcode
// tables, operand shapes) instead of importing bcode's compiler internals:
// translation validation is only worth its name if the checker cannot
// inherit the compiler's bugs.

import (
	"fmt"
	"math"

	"specdis/internal/bcode"
	"specdis/internal/ir"
)

// CheckBCode validates one compiled bytecode program against its source
// tree. A nil program is vacuously valid (the tree runs on the reference
// walker). The tree is taken as ground truth: callers lint the tree with
// CheckTree/CheckProgram separately.
func CheckBCode(t *ir.Tree, p *bcode.Prog) []Finding {
	if p == nil {
		return nil
	}
	c := &bcodeChecker{t: t, fn: t.Fn, p: p}
	c.fail = func(check, format string, args ...any) {
		c.out = append(c.out, Finding{
			Check: check,
			Func:  c.fn.Name,
			Tree:  fmt.Sprintf("T%d(%s)", t.ID, t.Name),
			Msg:   fmt.Sprintf(format, args...),
		})
	}
	c.run()
	return c.out
}

type bcodeChecker struct {
	t    *ir.Tree
	fn   *ir.Function
	p    *bcode.Prog
	out  []Finding
	fail func(check, format string, args ...any)
}

// bcPure mirrors the compiler's pure-op lowering table, re-derived here so
// the validator does not inherit compiler bugs. Kinds with bespoke lowering
// (const, memory, print, exit, nop) are absent.
var bcPure = map[ir.OpKind]struct {
	op    bcode.Op
	nargs int
}{
	ir.OpMove: {bcode.Move, 1},
	ir.OpAdd:  {bcode.Add, 2}, ir.OpSub: {bcode.Sub, 2}, ir.OpMul: {bcode.Mul, 2},
	ir.OpDiv: {bcode.Div, 2}, ir.OpRem: {bcode.Rem, 2}, ir.OpNeg: {bcode.Neg, 1},
	ir.OpAnd: {bcode.And, 2}, ir.OpOr: {bcode.Or, 2}, ir.OpXor: {bcode.Xor, 2},
	ir.OpNot: {bcode.Not, 1}, ir.OpShl: {bcode.Shl, 2}, ir.OpShr: {bcode.Shr, 2},
	ir.OpBNot: {bcode.BNot, 1}, ir.OpBAnd: {bcode.BAnd, 2}, ir.OpBAndNot: {bcode.BAndNot, 2},
	ir.OpCmpEQ: {bcode.CmpEQ, 2}, ir.OpCmpNE: {bcode.CmpNE, 2}, ir.OpCmpLT: {bcode.CmpLT, 2},
	ir.OpCmpLE: {bcode.CmpLE, 2}, ir.OpCmpGT: {bcode.CmpGT, 2}, ir.OpCmpGE: {bcode.CmpGE, 2},
	ir.OpFAdd: {bcode.FAdd, 2}, ir.OpFSub: {bcode.FSub, 2}, ir.OpFMul: {bcode.FMul, 2},
	ir.OpFDiv: {bcode.FDiv, 2}, ir.OpFNeg: {bcode.FNeg, 1},
	ir.OpFCmpEQ: {bcode.FCmpEQ, 2}, ir.OpFCmpNE: {bcode.FCmpNE, 2},
	ir.OpFCmpLT: {bcode.FCmpLT, 2}, ir.OpFCmpLE: {bcode.FCmpLE, 2},
	ir.OpFCmpGT: {bcode.FCmpGT, 2}, ir.OpFCmpGE: {bcode.FCmpGE, 2},
	ir.OpCvtIF: {bcode.CvtIF, 1}, ir.OpCvtFI: {bcode.CvtFI, 1},
	ir.OpSqrt: {bcode.Sqrt, 1}, ir.OpFAbs: {bcode.FAbs, 1}, ir.OpSin: {bcode.Sin, 1},
	ir.OpCos: {bcode.Cos, 1}, ir.OpExp: {bcode.Exp, 1}, ir.OpLog: {bcode.Log, 1},
}

func (c *bcodeChecker) run() {
	t, p := c.t, c.p
	if len(p.Code) != len(t.Ops) {
		// The whole tier contract hangs on index == Seq: fuel is charged per
		// tree as len(t.Ops), and profiling tables are Seq-indexed. Nothing
		// else is checkable when the shapes disagree.
		c.fail("bvalid/length", "program has %d instructions for %d ops (fuel accounting and Seq indexing broken)", len(p.Code), len(t.Ops))
		return
	}
	c.checkCorrespondence()
	c.checkAbstract()
}

// checkCorrespondence compares each instruction word against its source op.
func (c *bcodeChecker) checkCorrespondence() {
	t, p := c.t, c.p
	gi := 0
	bitSeen := map[uint16]int{} // commit-bit slot -> first claiming instr index
	for i := range p.Code {
		in, op := &p.Code[i], t.Ops[i]
		if op == nil {
			continue // CheckTree reports struct/nil-op
		}

		// Guard, polarity, and commit-bit slot: the compiled commit protocol
		// must match what the speculation checker proved on the tree.
		if op.IsGuarded() {
			if in.Guard != int32(op.Guard) {
				c.fail("bvalid/guard", "instr %d guards on r%d, op %%%d on r%d", i, in.Guard, op.ID, op.Guard)
			}
			if in.GNeg != op.GuardNeg {
				c.fail("bvalid/guard-polarity", "instr %d has guard polarity %v, op %%%d has %v (commit mask inverted)", i, in.GNeg, op.ID, op.GuardNeg)
			}
			if first, dup := bitSeen[in.GIdx]; dup {
				c.fail("bvalid/commit-dup", "instr %d claims commit bit %d already claimed by instr %d (double commit)", i, in.GIdx, first)
			} else {
				bitSeen[in.GIdx] = i
			}
			if int(in.GIdx) != gi {
				c.fail("bvalid/commit-bit", "instr %d has commit bit %d, want %d (the op's index among guarded ops in Seq order)", i, in.GIdx, gi)
			}
			gi++
		} else if in.Guard >= 0 {
			c.fail("bvalid/guard", "instr %d is guarded on r%d but op %%%d is unguarded", i, in.Guard, op.ID)
		}
		if op.SpecSide != 0 && op.Kind.HasSideEffect() && op.Kind != ir.OpExit && in.Guard < 0 {
			c.fail("bvalid/spec-guard", "instr %d: side-effecting %s %%%d on alias side %+d compiled without its guard", i, op.Kind, op.ID, op.SpecSide)
		}

		c.checkWord(i, in, op)
	}
	if p.NumGuarded != gi {
		c.fail("bvalid/guard-count", "program declares %d guarded instructions, stream has %d (commit-bit width wrong)", p.NumGuarded, gi)
	}
}

// checkWord validates one instruction's opcode and operand fields against
// its source op.
func (c *bcodeChecker) checkWord(i int, in *bcode.Instr, op *ir.Op) {
	t, p := c.t, c.p
	argIs := func(field string, got int32, k int) {
		if k >= len(op.Args) {
			return // arity reported by CheckTree
		}
		if got != int32(op.Args[k]) {
			c.fail("bvalid/operand", "instr %d %s reads r%d, op %%%d operand %d is r%d", i, field, got, op.ID, k, op.Args[k])
		}
	}
	destIs := func(want ir.Reg) {
		w := int32(want)
		if want == ir.NoReg {
			w = -1
		}
		if in.Dest != w {
			c.fail("bvalid/dest", "instr %d writes r%d, op %%%d writes r%d", i, in.Dest, op.ID, w)
		}
	}
	regRange := func(field string, r int32) {
		if r >= 0 && int(r) >= c.fn.NumRegs {
			c.fail("bvalid/reg-range", "instr %d %s r%d outside the register file (%d regs)", i, field, r, c.fn.NumRegs)
		}
	}
	regRange("guard", in.Guard)
	if in.Op != bcode.Const {
		regRange("A", in.A)
	}
	regRange("B", in.B)
	regRange("dest", in.Dest)

	badOp := func(want string) {
		c.fail("bvalid/opcode", "instr %d is %s, op %%%d (%s) lowers to %s", i, in.Op, op.ID, op.Kind, want)
	}
	switch op.Kind {
	case ir.OpNop:
		if in.Op != bcode.Nop {
			badOp("nop")
		}
	case ir.OpConst:
		if op.Dest == ir.NoReg {
			if in.Op != bcode.Nop {
				badOp("nop (discarded result)")
			}
			break
		}
		if in.Op != bcode.Const {
			badOp("const")
			break
		}
		if in.A < 0 || int(in.A) >= len(p.Consts) {
			c.fail("bvalid/const-pool", "instr %d reads constant slot %d of a %d-entry pool", i, in.A, len(p.Consts))
			break
		}
		if v := p.Consts[in.A]; v.I != op.Imm.I || math.Float64bits(v.F) != math.Float64bits(op.Imm.F) {
			c.fail("bvalid/const-value", "instr %d pool value (%d, %g) differs from op %%%d immediate (%d, %g)", i, v.I, v.F, op.ID, op.Imm.I, op.Imm.F)
		}
		destIs(op.Dest)
	case ir.OpLoad:
		if in.Op != bcode.Load {
			badOp("load")
			break
		}
		argIs("address", in.A, 0)
		destIs(op.Dest)
	case ir.OpStore:
		if in.Op != bcode.Store {
			badOp("store")
			break
		}
		argIs("address", in.A, 0)
		argIs("value", in.B, 1)
		destIs(ir.NoReg)
	case ir.OpPrint:
		want := bcode.PrintI
		if op.PrintFloat {
			want = bcode.PrintF
		}
		if in.Op != want {
			badOp(want.String())
			break
		}
		argIs("value", in.A, 0)
		destIs(ir.NoReg)
	case ir.OpExit:
		if in.Op != bcode.Exit {
			badOp("exit")
			break
		}
		destIs(ir.NoReg)
		switch op.Exit {
		case ir.ExitGoto, ir.ExitCall:
			if op.Target < 0 || op.Target >= len(t.Fn.Trees) {
				c.fail("bvalid/exit-target", "instr %d exit targets tree %d of %d", i, op.Target, len(t.Fn.Trees))
			}
		}
	default:
		spec, known := bcPure[op.Kind]
		if !known {
			c.fail("bvalid/opcode", "instr %d: op %%%d has kind %s outside the bytecode repertoire", i, op.ID, op.Kind)
			break
		}
		if op.Dest == ir.NoReg {
			if in.Op != bcode.Nop {
				badOp("nop (discarded result)")
			}
			break
		}
		if in.Op != spec.op {
			badOp(spec.op.String())
			break
		}
		argIs("A", in.A, 0)
		if spec.nargs == 2 {
			argIs("B", in.B, 1)
		} else if in.B != -1 {
			c.fail("bvalid/operand", "instr %d (%s) reads a spurious second operand r%d", i, in.Op, in.B)
		}
		destIs(op.Dest)
	}
}

// absType is the abstract interpreter's four-point type lattice.
type absType uint8

const (
	absBot   absType = iota // no definition reaches this register
	absInt                  // every reaching definition produces an integer
	absFloat                // every reaching definition produces a float
	absAny                  // definitions of mixed or unknown type
)

func (a absType) String() string {
	switch a {
	case absBot:
		return "undefined"
	case absInt:
		return "int"
	case absFloat:
		return "float"
	}
	return "any"
}

func absJoin(a, b absType) absType {
	switch {
	case a == b:
		return a
	case a == absBot:
		return b
	case b == absBot:
		return a
	}
	return absAny
}

// checkAbstract runs the forward abstract interpretation: defined-before-use
// over the instruction stream, with the int/float lattice flagging integer
// operand positions fed by provably-float registers.
func (c *bcodeChecker) checkAbstract() {
	t, fn, p := c.t, c.fn, c.p
	if fn.NumRegs <= 0 {
		return
	}
	state := make([]absType, fn.NumRegs)

	// Registers defined outside this instruction stream are unknown but
	// defined: parameters, definitions in other trees, and — when the tree
	// can re-execute before the function returns — this tree's own later
	// definitions (loop-carried values). This mirrors checkDefBeforeUse.
	seed := func(r ir.Reg) {
		if r >= 0 && int(r) < fn.NumRegs {
			state[r] = absAny
		}
	}
	for _, prm := range fn.Params {
		seed(prm)
	}
	loopCarried := selfReachable(fn, t)
	for _, tr := range fn.Trees {
		if tr == t && !loopCarried {
			continue
		}
		for _, op := range tr.Ops {
			if op != nil && op.Dest != ir.NoReg {
				seed(op.Dest)
			}
		}
	}

	read := func(i int, in *bcode.Instr, field string, r int32, wantInt bool) {
		if r < 0 || int(r) >= fn.NumRegs {
			return // reported by checkWord
		}
		switch {
		case state[r] == absBot:
			c.fail("bvalid/use-before-def", "instr %d (%s) reads %s r%d before any definition", i, in.Op, field, r)
		case wantInt && state[r] == absFloat:
			c.fail("bvalid/type", "instr %d (%s) reads float r%d in integer position %s", i, in.Op, r, field)
		}
	}
	for i := range p.Code {
		in := &p.Code[i]
		if in.Guard >= 0 && int(in.Guard) < fn.NumRegs {
			switch state[in.Guard] {
			case absBot:
				c.fail("bvalid/use-before-def", "instr %d (%s) reads guard r%d before any definition", i, in.Op, in.Guard)
			case absFloat:
				c.fail("bvalid/guard-type", "instr %d (%s) guards on float r%d (the commit test reads the integer view)", i, in.Op, in.Guard)
			}
		}

		var res absType
		switch in.Op {
		case bcode.Nop:
			continue
		case bcode.Const:
			// Pool values are opaque: the IR does not tag immediates, so an
			// integer constant and a float constant are indistinguishable.
			res = absAny
		case bcode.Move:
			read(i, in, "operand", in.A, false)
			if in.A >= 0 && int(in.A) < fn.NumRegs {
				res = state[in.A]
			} else {
				res = absAny
			}
		case bcode.Add, bcode.Sub, bcode.Mul, bcode.Div, bcode.Rem,
			bcode.And, bcode.Or, bcode.Xor, bcode.Shl, bcode.Shr,
			bcode.CmpEQ, bcode.CmpNE, bcode.CmpLT, bcode.CmpLE, bcode.CmpGT, bcode.CmpGE:
			read(i, in, "A", in.A, true)
			read(i, in, "B", in.B, true)
			res = absInt
		case bcode.Neg, bcode.Not:
			read(i, in, "operand", in.A, true)
			res = absInt
		case bcode.BNot:
			read(i, in, "operand", in.A, true)
			res = absInt
		case bcode.BAnd, bcode.BAndNot:
			read(i, in, "A", in.A, true)
			read(i, in, "B", in.B, true)
			res = absInt
		case bcode.FAdd, bcode.FSub, bcode.FMul, bcode.FDiv:
			read(i, in, "A", in.A, false)
			read(i, in, "B", in.B, false)
			res = absFloat
		case bcode.FNeg, bcode.Sqrt, bcode.FAbs, bcode.Sin, bcode.Cos, bcode.Exp, bcode.Log:
			read(i, in, "operand", in.A, false)
			res = absFloat
		case bcode.FCmpEQ, bcode.FCmpNE, bcode.FCmpLT, bcode.FCmpLE, bcode.FCmpGT, bcode.FCmpGE:
			read(i, in, "A", in.A, false)
			read(i, in, "B", in.B, false)
			res = absInt // compares produce the 0/1 boolean encoding
		case bcode.CvtIF:
			read(i, in, "operand", in.A, true)
			res = absFloat
		case bcode.CvtFI:
			read(i, in, "operand", in.A, false)
			res = absInt
		case bcode.Load:
			read(i, in, "address", in.A, true)
			res = absAny
		case bcode.Store:
			read(i, in, "address", in.A, true)
			read(i, in, "value", in.B, false)
			continue
		case bcode.PrintI:
			read(i, in, "value", in.A, true)
			continue
		case bcode.PrintF:
			read(i, in, "value", in.A, false)
			continue
		case bcode.Exit:
			continue
		default:
			c.fail("bvalid/opcode", "instr %d has unknown opcode %d", i, int(in.Op))
			continue
		}

		if in.Dest >= 0 && int(in.Dest) < fn.NumRegs {
			if in.Guard >= 0 {
				// A squashed guarded write leaves the old value in place, so
				// the post-state is the join of both outcomes (a ⊥ register
				// still becomes defined: the tree-level checker counts any
				// definition, and the guard may well hold).
				state[in.Dest] = absJoin(state[in.Dest], res)
			} else {
				state[in.Dest] = res
			}
		}
	}
}
