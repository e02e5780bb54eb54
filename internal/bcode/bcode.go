// Package bcode lowers decision-tree IR into a flat register-machine
// bytecode and executes it with a tight dispatch loop.
//
// The tree-walking interpreter in internal/sim chases one *ir.Op pointer per
// dynamic operation, re-derives operand registers from an Args slice, and
// calls through a shared evaluator — fine as a reference semantics, but pure
// overhead on the simulation hot path. The bytecode engine pays those costs
// once, at compile time: each tree becomes one dense []Instr (one fixed-width
// instruction word per op, in Seq order, so instruction index == Seq), with
// operand register indices pre-resolved into the word, constants gathered
// into a pool, the guard register, polarity and commit-bit slot folded into
// the word, and specialized int/float opcodes so the executor's inner loop is
// a single `for { switch instr.Op }` that never inspects IR metadata.
//
// Execution semantics are exactly those of the tree walker (guarded
// write-back, clamped non-faulting memory, non-trapping integer division):
// the executor is byte-for-byte equivalent on output, commit bits, taken
// exits, and operation counts, which the differential fuzzer
// FuzzBytecodeVsTree (internal/disamb) and the semantics tests in
// internal/sim pin.
//
// Compile is deliberately strict: any op shape it does not recognize (wrong
// arity, missing destination, out-of-range register, too many guarded ops
// for the commit-bit field) yields an error, and callers fall back to the
// tree walker for that tree — the reference semantics, so a fallback can
// never change results, only speed.
package bcode

import (
	"fmt"
	"math"

	"specdis/internal/ir"
)

// Op is a bytecode opcode. The repertoire mirrors ir.OpKind but is already
// specialized: integer and floating-point forms are distinct opcodes, print
// formatting is folded into the opcode (PrintI/PrintF), and constants load
// from a pool.
type Op uint8

// Opcodes. Value-producing ops write Dest; all write-back (and the Store,
// Print and Exit side effects) is suppressed when the instruction's guard
// evaluates false.
const (
	Nop   Op = iota
	Const    // Dest = Consts[A]
	Move     // Dest = regs[A]

	// Integer ALU.
	Add // Dest = regs[A] + regs[B]
	Sub
	Mul
	Div // division by zero yields 0 (non-trapping machine)
	Rem
	Neg
	And
	Or
	Xor
	Not
	Shl
	Shr

	// Boolean/guard logic.
	BNot
	BAnd
	BAndNot

	// Integer compares (produce 0/1).
	CmpEQ
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE

	// Floating point.
	FAdd
	FSub
	FMul
	FDiv
	FNeg
	FCmpEQ
	FCmpNE
	FCmpLT
	FCmpLE
	FCmpGT
	FCmpGE

	// Conversions and FPU intrinsics.
	CvtIF
	CvtFI
	Sqrt
	FAbs
	Sin
	Cos
	Exp
	Log

	// Memory. Addresses clamp into the memory image (non-faulting loads).
	Load  // Dest = mem[clamp(regs[A])]
	Store // mem[clamp(regs[A])] = regs[B]

	// Output, with the format folded into the opcode.
	PrintI // print regs[A] as integer
	PrintF // print regs[A] as float

	// Exit: record this instruction's Seq as the taken exit. The exit
	// payload (kind, target, callee, arguments) stays on the source ir.Op;
	// the executor's caller resolves it once per tree execution.
	Exit

	numOps
)

var opNames = [numOps]string{
	Nop: "nop", Const: "const", Move: "mov",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	Neg: "neg", And: "and", Or: "or", Xor: "xor", Not: "not",
	Shl: "shl", Shr: "shr",
	BNot: "bnot", BAnd: "band", BAndNot: "bandnot",
	CmpEQ: "cmpeq", CmpNE: "cmpne", CmpLT: "cmplt", CmpLE: "cmple",
	CmpGT: "cmpgt", CmpGE: "cmpge",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv", FNeg: "fneg",
	FCmpEQ: "fcmpeq", FCmpNE: "fcmpne", FCmpLT: "fcmplt",
	FCmpLE: "fcmple", FCmpGT: "fcmpgt", FCmpGE: "fcmpge",
	CvtIF: "cvtif", CvtFI: "cvtfi",
	Sqrt: "sqrt", FAbs: "fabs", Sin: "sin", Cos: "cos", Exp: "exp", Log: "log",
	Load: "load", Store: "store", PrintI: "printi", PrintF: "printf",
	Exit: "exit",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("bcop(%d)", int(o))
}

// Instr is one fixed-width instruction word: 20 bytes, laid out so the hot
// loop reads it from one or two cache lines' worth of contiguous code.
//
// Guard is the guard register (-1 = unguarded, always commits). For guarded
// instructions, GIdx is the commit-bit slot — the op's index among the
// tree's guarded ops in Seq order, matching the trace wire format — and GNeg
// the guard polarity.
type Instr struct {
	Op   Op
	GNeg bool
	GIdx uint16
	// Guard, A, B and Dest are pre-resolved register indices (A is the
	// constant-pool index for Const). -1 where unused.
	Guard int32
	A, B  int32
	Dest  int32
}

// Prog is one tree compiled to bytecode. Code parallels the tree's ops: the
// instruction at index i executes the op with Seq i, so profiling tables and
// completion-cycle plans indexed by Seq apply unchanged.
type Prog struct {
	// Name is the name of the tree the program was compiled from. A cached
	// program outlives that tree and serves its clones, so it keeps only the
	// name (for String), never the tree.
	Name   string
	Code   []Instr
	Consts []ir.Value
	// NumGuarded is the number of guarded instructions (= commit-bit width).
	NumGuarded int
}

// String disassembles the program for debugging and documentation.
func (p *Prog) String() string {
	s := fmt.Sprintf("bcode %s: %d instrs, %d consts, %d guarded\n",
		p.Name, len(p.Code), len(p.Consts), p.NumGuarded)
	for i := range p.Code {
		in := &p.Code[i]
		s += fmt.Sprintf("  %3d: %-7s", i, in.Op)
		if in.Op == Const {
			s += fmt.Sprintf(" c%d", in.A)
		} else {
			for _, r := range []int32{in.A, in.B} {
				if r >= 0 {
					s += fmt.Sprintf(" r%d", r)
				}
			}
		}
		if in.Dest >= 0 {
			s += fmt.Sprintf(" -> r%d", in.Dest)
		}
		if in.Guard >= 0 {
			neg := ""
			if in.GNeg {
				neg = "!"
			}
			s += fmt.Sprintf(" ?%sr%d [bit %d]", neg, in.Guard, in.GIdx)
		}
		s += "\n"
	}
	return s
}

// pureSpec maps a pure ir.OpKind to its opcode and arity. Kinds that need
// bespoke lowering (Const, memory, print, exit, nop) are absent.
var pureSpec = map[ir.OpKind]struct {
	op    Op
	nargs int
}{
	ir.OpMove: {Move, 1},
	ir.OpAdd:  {Add, 2}, ir.OpSub: {Sub, 2}, ir.OpMul: {Mul, 2},
	ir.OpDiv: {Div, 2}, ir.OpRem: {Rem, 2}, ir.OpNeg: {Neg, 1},
	ir.OpAnd: {And, 2}, ir.OpOr: {Or, 2}, ir.OpXor: {Xor, 2},
	ir.OpNot: {Not, 1}, ir.OpShl: {Shl, 2}, ir.OpShr: {Shr, 2},
	ir.OpBNot: {BNot, 1}, ir.OpBAnd: {BAnd, 2}, ir.OpBAndNot: {BAndNot, 2},
	ir.OpCmpEQ: {CmpEQ, 2}, ir.OpCmpNE: {CmpNE, 2}, ir.OpCmpLT: {CmpLT, 2},
	ir.OpCmpLE: {CmpLE, 2}, ir.OpCmpGT: {CmpGT, 2}, ir.OpCmpGE: {CmpGE, 2},
	ir.OpFAdd: {FAdd, 2}, ir.OpFSub: {FSub, 2}, ir.OpFMul: {FMul, 2},
	ir.OpFDiv: {FDiv, 2}, ir.OpFNeg: {FNeg, 1},
	ir.OpFCmpEQ: {FCmpEQ, 2}, ir.OpFCmpNE: {FCmpNE, 2},
	ir.OpFCmpLT: {FCmpLT, 2}, ir.OpFCmpLE: {FCmpLE, 2},
	ir.OpFCmpGT: {FCmpGT, 2}, ir.OpFCmpGE: {FCmpGE, 2},
	ir.OpCvtIF: {CvtIF, 1}, ir.OpCvtFI: {CvtFI, 1},
	ir.OpSqrt: {Sqrt, 1}, ir.OpFAbs: {FAbs, 1}, ir.OpSin: {Sin, 1},
	ir.OpCos: {Cos, 1}, ir.OpExp: {Exp, 1}, ir.OpLog: {Log, 1},
}

// Compile lowers one decision tree to bytecode. It returns an error for any
// op shape outside the recognized repertoire; callers treat that as "run
// this tree on the reference tree walker" rather than a failure.
func Compile(t *ir.Tree) (*Prog, error) {
	p := &Prog{Name: t.Name, Code: make([]Instr, len(t.Ops))}
	gi := 0
	for i, op := range t.Ops {
		in := &p.Code[i]
		in.Guard, in.A, in.B, in.Dest = -1, -1, -1, -1
		if op.Guard != ir.NoReg {
			if op.Guard < 0 {
				return nil, fmt.Errorf("bcode: op %%%d has negative guard register %d", op.ID, op.Guard)
			}
			if gi > math.MaxUint16 {
				return nil, fmt.Errorf("bcode: tree %s has more than %d guarded ops", t.Name, math.MaxUint16)
			}
			in.Guard = int32(op.Guard)
			in.GNeg = op.GuardNeg
			in.GIdx = uint16(gi)
			gi++
		}

		argReg := func(k int) (int32, error) {
			if k >= len(op.Args) || op.Args[k] < 0 {
				return -1, fmt.Errorf("bcode: op %%%d (%s) lacks operand %d", op.ID, op.Kind, k)
			}
			return int32(op.Args[k]), nil
		}
		var err error
		switch op.Kind {
		case ir.OpNop:
			in.Op = Nop
		case ir.OpConst:
			if op.Dest == ir.NoReg {
				in.Op = Nop // result discarded: only the guard bit is observable
				break
			}
			in.Op = Const
			in.A = int32(len(p.Consts))
			p.Consts = append(p.Consts, op.Imm)
			in.Dest = int32(op.Dest)
		case ir.OpLoad:
			in.Op = Load
			if in.A, err = argReg(0); err != nil {
				return nil, err
			}
			if op.Dest == ir.NoReg {
				return nil, fmt.Errorf("bcode: load %%%d has no destination", op.ID)
			}
			in.Dest = int32(op.Dest)
		case ir.OpStore:
			in.Op = Store
			if in.A, err = argReg(0); err != nil {
				return nil, err
			}
			if in.B, err = argReg(1); err != nil {
				return nil, err
			}
		case ir.OpPrint:
			in.Op = PrintI
			if op.PrintFloat {
				in.Op = PrintF
			}
			if in.A, err = argReg(0); err != nil {
				return nil, err
			}
		case ir.OpExit:
			in.Op = Exit
		default:
			spec, known := pureSpec[op.Kind]
			if !known {
				return nil, fmt.Errorf("bcode: unhandled op kind %s", op.Kind)
			}
			if op.Dest == ir.NoReg {
				in.Op = Nop // pure result discarded: no observable effect
				break
			}
			if len(op.Args) != spec.nargs {
				return nil, fmt.Errorf("bcode: op %%%d (%s) has %d operands, want %d",
					op.ID, op.Kind, len(op.Args), spec.nargs)
			}
			in.Op = spec.op
			if in.A, err = argReg(0); err != nil {
				return nil, err
			}
			if spec.nargs == 2 {
				if in.B, err = argReg(1); err != nil {
					return nil, err
				}
			}
			in.Dest = int32(op.Dest)
		}
	}
	p.NumGuarded = gi
	return p, nil
}
