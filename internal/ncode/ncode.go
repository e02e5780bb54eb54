// Package ncode lowers decision-tree IR to chains of pre-bound Go closures —
// the simulator's native execution tier.
//
// The bytecode engine (internal/bcode) already pays operand resolution once,
// at compile time, but its executor still spends every dynamic instruction on
// a central `for { switch instr.Op }`: a loop bound check, an instruction
// fetch, a guard-presence test, an indirect dispatch, and (under profiling) a
// `profiling` flag test. The native tier compiles those costs away with
// closure-threaded dispatch: each instruction becomes one closure with its
// operand indices, constant payload, guard register, polarity and commit-bit
// mask already bound, and execution is a single tight loop over the flat
// closure slice — no opcode decode, no guard-presence test, no profiling
// test per step. (A tail-calling chain where each closure invokes the next
// was measured and rejected: Go has no tail-call elimination, so every step
// paid a full call frame and the chain ran slower than the bytecode switch.)
//
// Two further specializations happen at compile time rather than run time:
//
//   - Guard pre-resolution. Unguarded ops get closures with no guard test at
//     all; guarded ops get one closure whose polarity is pre-resolved into a
//     captured `want` boolean (no GNeg branch per step).
//
//   - Profiling specialization. Every tree compiles to two chains — plain and
//     profiling — so the per-instruction `env.Profiling` test disappears; the
//     profiling chain has the per-Seq commit and address sampling bound in.
//
// On top of that, a fusion pass tiles the stream greedily with the measured
// hot-pair catalog of two-word superinstructions: an unguarded compare
// feeding the next instruction's guard as an exit (compare+exit), an
// unguarded constant feeding an ALU or compare operand (const+arith), and
// adjacent unguarded pairs (address arithmetic feeding a load — with the
// computed address forwarded instead of re-read — load feeding FP
// arithmetic, FP sequences, back-to-back constants and moves). Each pair is
// one inlined closure body, so it removes a dispatch. The catalog stops at
// pairs: a wider superinstruction built by composing its members' closures
// removes no calls, and measured no faster (docs/PERFORMANCE.md).
// Loads/stores keep the non-faulting bounds clamp, commit-bit write and
// profiling address sample folded into the one memory closure.
//
// Execution semantics are exactly those of the tree walker and the bytecode
// engine (guarded write-back, clamped non-faulting memory, non-trapping
// integer division): outputs, commit bits, taken exits and operation counts
// are byte-for-byte identical, which the differential fuzzers
// (FuzzNativeVsBCode, FuzzBytecodeVsTree in internal/disamb) and the
// semantics tests in internal/sim pin. Compilation is exactly as strict as
// bcode.Compile — ncode lowers through the bytecode stream, so any tree the
// bytecode compiler declines falls back to the reference tree walker here
// too.
package ncode

import (
	"specdis/internal/bcode"
	"specdis/internal/ir"
)

// step is one compiled execution step: it performs its (possibly fused)
// operation over the Env. An Exit step that observes a duplicate committed
// exit records it and the loop still runs to completion — the execution is
// about to fail with a two-exits error, so the post-duplicate register and
// memory state is never observed, and keeping steps return-free keeps the
// dispatch loop branchless.
type step func(*Env)

// Env is the machine state one tree execution reads and mutates, mirroring
// bcode.Env: the caller (internal/sim's Runner) keeps ownership of memory,
// output and trace recording. The profiling tables are only touched by the
// profiling chain, so a caller that never profiles may leave them nil.
type Env struct {
	// Regs is the current function invocation's register frame.
	Regs []ir.Value
	// Mem is the program's flat memory image. Memory bounds are read from
	// here at run time, so one compiled program can serve any program clone.
	Mem []ir.Value
	// Bits receives the packed guard-commit bits (bit GIdx set iff the
	// guarded instruction committed), in the trace wire layout. The caller
	// zeroes it before each execution; it must hold NumGuarded bits.
	Bits []byte
	// Print emits one committed print op's value.
	Print func(v ir.Value, isFloat bool)

	// Committed[seq] and Addrs[seq] are the profiling tables, indexed by
	// instruction position (== ir.Op.Seq); the profiling chain fills
	// Committed for guarded instructions and Addrs for memory instructions
	// (squashed ones included — the dependence profiler observes every
	// issued access), with the address operand as computed, before the
	// clamp. Olds, when non-nil, receives at Olds[seq] the word each
	// committed store overwrote (profiling chain only), as in bcode.Env.
	Committed []bool
	Addrs     []int64
	Olds      []ir.Value

	// Per-execution exit state, reset by Prog.Exec.
	taken, dup int
	ncommit    int64
}

// Prog is one tree compiled to native closure chains.
type Prog struct {
	// Name is the name of the tree the chains were compiled from; like
	// bcode.Prog, a cached program keeps the name, never the tree.
	Name string
	// NumGuarded is the number of guarded instructions (= commit-bit width).
	NumGuarded int
	// Steps counts the closures of one chain; Fused counts the
	// superinstructions the fusion pass formed (each saves one dispatch).
	Steps, Fused int

	// Src is the bytecode program the chains were lowered through, and Plan
	// the fusion plan applied to it — retained so the translation validator
	// (internal/verify.CheckNCode) can audit the compiled artifact against
	// the source tree without recompiling.
	Src  *bcode.Prog
	Plan []FuseKind

	plain, prof []step
}

// Exec runs the compiled tree over env, selecting the plain or profiling
// specialization, and reports the taken exit's instruction index (-1 if no
// exit committed), the index of the first duplicate committed exit (-1
// normally; a non-negative value makes the caller fail the execution with
// the reference interpreter's two-exits error), and how many guarded
// instructions committed.
func (p *Prog) Exec(env *Env, profiling bool) (taken, dup int, ncommit int64) {
	env.taken, env.dup, env.ncommit = -1, -1, 0
	steps := p.plain
	if profiling {
		steps = p.prof
	}
	for _, s := range steps {
		s(env)
	}
	return env.taken, env.dup, env.ncommit
}

// Compile lowers one decision tree to closure chains. Lowering goes through
// the bytecode stream, so the strictness contract is bcode.Compile's: any
// tree outside the repertoire errors, and callers fall back to the reference
// tree walker.
func Compile(t *ir.Tree) (*Prog, error) {
	bp, err := bcode.Compile(t)
	if err != nil {
		return nil, err
	}
	plan := fusePlan(bp.Code)
	p := &Prog{Name: t.Name, NumGuarded: bp.NumGuarded, Src: bp, Plan: plan}
	for _, k := range plan {
		if k != FuseNone && k != FuseConsumed {
			p.Fused++
		}
	}
	e := &emitter{code: bp.Code, consts: bp.Consts}
	p.plain = e.emit(plan, false)
	p.Steps = len(p.plain)
	p.prof = e.emit(plan, true)
	return p, nil
}

// FuseKind classifies each instruction's role in the fusion plan. It is
// exported (with the plan itself, Prog.Plan) for the translation validator.
type FuseKind uint8

const (
	// FuseNone: the instruction emits its own step.
	FuseNone FuseKind = iota
	// FuseConsumed: the instruction executes inside the previous
	// superinstruction and emits nothing.
	FuseConsumed
	// FuseCmpExit: an unguarded compare at pc whose result guards the exit
	// at pc+1 — one closure computes the compare, writes the (observable)
	// boolean register, and resolves the exit.
	FuseCmpExit
	// FuseConstAlu: an unguarded constant at pc feeding an operand of the
	// unguarded ALU/compare at pc+1 — one closure writes the constant and
	// computes the operation.
	FuseConstAlu
	// FusePair: two adjacent unguarded instructions from the hot-pair
	// catalog (address arithmetic feeding a load, ALU and FP sequences,
	// back-to-back constants or moves) executed by one closure.
	FusePair
)

// fusePlan is the greedy pairwise tiler: at each pc it tries the compare+exit,
// const+arith and hot-pair shapes in that order and moves on past whatever it
// planned, so pairs never overlap and an exit is only ever the consumed half
// of a compare+exit. Fusion never changes semantics — both architectural
// writes of a pair still happen, in order — it only removes dispatches.
func fusePlan(code []bcode.Instr) []FuseKind {
	plan := make([]FuseKind, len(code))
	for pc := 0; pc+1 < len(code); pc++ {
		in, nx := &code[pc], &code[pc+1]
		if in.Guard >= 0 || in.Dest < 0 {
			continue
		}
		switch {
		case isCmp(in.Op) && nx.Op == bcode.Exit && nx.Guard == in.Dest:
			plan[pc] = FuseCmpExit
		case in.Op == bcode.Const && nx.Guard < 0 && nx.Dest >= 0 &&
			fusableAlu(nx.Op) && (nx.A == in.Dest || nx.B == in.Dest):
			plan[pc] = FuseConstAlu
		case nx.Guard < 0 && nx.Dest >= 0 && pairable(in.Op, nx.Op):
			plan[pc] = FusePair
		default:
			continue
		}
		plan[pc+1] = FuseConsumed
		pc++
	}
	return plan
}

// pairable reports whether the hot-pair catalog has a superinstruction for
// the adjacent unguarded ops (op1, op2) — kept in exact sync with the combos
// emitter.pair implements. The catalog is driven by the pair frequencies of
// the benchmark suite's bytecode streams: integer address arithmetic feeding
// a load, load feeding floating-point arithmetic, floating-point sequences,
// and back-to-back constants or moves.
func pairable(op1, op2 bcode.Op) bool {
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

// isCmp reports whether op is an integer or floating-point compare (produces
// the 0/1 boolean guard encoding).
func isCmp(op bcode.Op) bool {
	switch op {
	case bcode.CmpEQ, bcode.CmpNE, bcode.CmpLT, bcode.CmpLE, bcode.CmpGT, bcode.CmpGE,
		bcode.FCmpEQ, bcode.FCmpNE, bcode.FCmpLT, bcode.FCmpLE, bcode.FCmpGT, bcode.FCmpGE:
		return true
	default:
		return false
	}
}

// fusableAlu reports whether op is a two-operand ALU or compare the
// const+arith superinstruction covers — integer and floating-point both.
// Div and Rem stay unfused: their non-trapping edge cases keep the closure
// large enough that fusing buys nothing.
func fusableAlu(op bcode.Op) bool {
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
