package ncode

import (
	"math"

	"specdis/internal/bcode"
	"specdis/internal/ir"
)

// emitter builds one closure slice over a bytecode program: a single forward
// pass that emits one pre-bound closure per surviving (unfused) instruction.
type emitter struct {
	code   []bcode.Instr
	consts []ir.Value
}

// emit builds the full step slice for one specialization. Execution is a
// tight branchless loop over the slice (Prog.Exec).
func (e *emitter) emit(plan []FuseKind, profiling bool) []step {
	steps := make([]step, 0, len(e.code))
	for pc := range e.code {
		var s step
		switch plan[pc] {
		case FuseConsumed:
			continue
		case FuseCmpExit:
			s = e.cmpExit(pc, profiling)
		case FuseConstAlu:
			s = e.constAlu(pc)
		case FusePair:
			s = e.pair(pc, profiling)
		default:
			s = e.one(pc, profiling)
		}
		if s != nil {
			steps = append(steps, s)
		}
	}
	return steps
}

// one emits the step for a single (unfused) instruction. Nops emit nothing.
func (e *emitter) one(pc int, profiling bool) step {
	in := e.code[pc]
	if in.Guard >= 0 {
		return e.guarded(in, pc, profiling)
	}
	a, b, d := int(in.A), int(in.B), int(in.Dest)
	switch in.Op {
	case bcode.Nop:
		return nil
	case bcode.Const:
		v := e.consts[a]
		return func(env *Env) { env.Regs[d] = v }
	case bcode.Move:
		return func(env *Env) { r := env.Regs; r[d] = r[a] }
	case bcode.Add:
		return func(env *Env) { r := env.Regs; r[d] = intV(r[a].I + r[b].I) }
	case bcode.Sub:
		return func(env *Env) { r := env.Regs; r[d] = intV(r[a].I - r[b].I) }
	case bcode.Mul:
		return func(env *Env) { r := env.Regs; r[d] = intV(r[a].I * r[b].I) }
	case bcode.Div:
		return func(env *Env) { r := env.Regs; r[d] = divV(r[a].I, r[b].I) }
	case bcode.Rem:
		return func(env *Env) { r := env.Regs; r[d] = remV(r[a].I, r[b].I) }
	case bcode.Neg:
		return func(env *Env) { r := env.Regs; r[d] = intV(-r[a].I) }
	case bcode.And:
		return func(env *Env) { r := env.Regs; r[d] = intV(r[a].I & r[b].I) }
	case bcode.Or:
		return func(env *Env) { r := env.Regs; r[d] = intV(r[a].I | r[b].I) }
	case bcode.Xor:
		return func(env *Env) { r := env.Regs; r[d] = intV(r[a].I ^ r[b].I) }
	case bcode.Not:
		return func(env *Env) { r := env.Regs; r[d] = intV(^r[a].I) }
	case bcode.Shl:
		return func(env *Env) { r := env.Regs; r[d] = intV(r[a].I << (uint64(r[b].I) & 63)) }
	case bcode.Shr:
		return func(env *Env) { r := env.Regs; r[d] = intV(r[a].I >> (uint64(r[b].I) & 63)) }
	case bcode.BNot:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].I == 0) }
	case bcode.BAnd:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].I != 0 && r[b].I != 0) }
	case bcode.BAndNot:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].I != 0 && r[b].I == 0) }
	case bcode.CmpEQ:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].I == r[b].I) }
	case bcode.CmpNE:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].I != r[b].I) }
	case bcode.CmpLT:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].I < r[b].I) }
	case bcode.CmpLE:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].I <= r[b].I) }
	case bcode.CmpGT:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].I > r[b].I) }
	case bcode.CmpGE:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].I >= r[b].I) }
	case bcode.FAdd:
		return func(env *Env) { r := env.Regs; r[d] = fltV(r[a].F + r[b].F) }
	case bcode.FSub:
		return func(env *Env) { r := env.Regs; r[d] = fltV(r[a].F - r[b].F) }
	case bcode.FMul:
		return func(env *Env) { r := env.Regs; r[d] = fltV(r[a].F * r[b].F) }
	case bcode.FDiv:
		return func(env *Env) { r := env.Regs; r[d] = fltV(r[a].F / r[b].F) }
	case bcode.FNeg:
		return func(env *Env) { r := env.Regs; r[d] = fltV(-r[a].F) }
	case bcode.FCmpEQ:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].F == r[b].F) }
	case bcode.FCmpNE:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].F != r[b].F) }
	case bcode.FCmpLT:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].F < r[b].F) }
	case bcode.FCmpLE:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].F <= r[b].F) }
	case bcode.FCmpGT:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].F > r[b].F) }
	case bcode.FCmpGE:
		return func(env *Env) { r := env.Regs; r[d] = b2i(r[a].F >= r[b].F) }
	case bcode.CvtIF:
		return func(env *Env) { r := env.Regs; r[d] = fltV(float64(r[a].I)) }
	case bcode.CvtFI:
		return func(env *Env) { r := env.Regs; r[d] = cvtFI(r[a].F) }
	case bcode.Sqrt:
		return func(env *Env) { r := env.Regs; r[d] = fltV(math.Sqrt(r[a].F)) }
	case bcode.FAbs:
		return func(env *Env) { r := env.Regs; r[d] = fltV(math.Abs(r[a].F)) }
	case bcode.Sin:
		return func(env *Env) { r := env.Regs; r[d] = fltV(math.Sin(r[a].F)) }
	case bcode.Cos:
		return func(env *Env) { r := env.Regs; r[d] = fltV(math.Cos(r[a].F)) }
	case bcode.Exp:
		return func(env *Env) { r := env.Regs; r[d] = fltV(math.Exp(r[a].F)) }
	case bcode.Log:
		return func(env *Env) { r := env.Regs; r[d] = fltV(math.Log(r[a].F)) }
	case bcode.Load:
		if profiling {
			return func(env *Env) {
				raw := env.Regs[a].I
				env.Addrs[pc] = raw
				env.Regs[d] = env.Mem[clamp(raw, int64(len(env.Mem))-1)]
			}
		}
		return func(env *Env) {
			env.Regs[d] = env.Mem[clamp(env.Regs[a].I, int64(len(env.Mem))-1)]
		}
	case bcode.Store:
		if profiling {
			return func(env *Env) {
				raw := env.Regs[a].I
				env.Addrs[pc] = raw
				addr := clamp(raw, int64(len(env.Mem))-1)
				if env.Olds != nil {
					env.Olds[pc] = env.Mem[addr]
				}
				env.Mem[addr] = env.Regs[b]
			}
		}
		return func(env *Env) {
			env.Mem[clamp(env.Regs[a].I, int64(len(env.Mem))-1)] = env.Regs[b]
		}
	case bcode.PrintI:
		return func(env *Env) { env.Print(env.Regs[a], false) }
	case bcode.PrintF:
		return func(env *Env) { env.Print(env.Regs[a], true) }
	case bcode.Exit:
		return func(env *Env) {
			if env.taken >= 0 {
				if env.dup < 0 {
					env.dup = pc
				}
				return
			}
			env.taken = pc
		}
	}
	// Unreachable: the switch covers the bytecode repertoire, and
	// bcode.Compile rejected everything else.
	panic("ncode: unhandled opcode " + in.Op.String())
}

// guarded emits one closure for a guarded instruction: guard polarity is
// pre-resolved into `want`, the commit-bit byte and mask are pre-bound, and
// the profiling chain additionally records the commit outcome (and, for
// memory ops, the speculative address even when squashed).
func (e *emitter) guarded(in bcode.Instr, pc int, profiling bool) step {
	g := int(in.Guard)
	want := !in.GNeg
	bb, mask := int(in.GIdx>>3), byte(1)<<(in.GIdx&7)
	a, b, d := int(in.A), int(in.B), int(in.Dest)

	switch in.Op {
	case bcode.Load:
		if profiling {
			return func(env *Env) {
				r := env.Regs
				raw := r[a].I
				env.Addrs[pc] = raw
				ok := (r[g].I != 0) == want
				env.Committed[pc] = ok
				if ok {
					env.Bits[bb] |= mask
					env.ncommit++
					r[d] = env.Mem[clamp(raw, int64(len(env.Mem))-1)]
				}
			}
		}
		return func(env *Env) {
			r := env.Regs
			if (r[g].I != 0) == want {
				env.Bits[bb] |= mask
				env.ncommit++
				r[d] = env.Mem[clamp(r[a].I, int64(len(env.Mem))-1)]
			}
		}
	case bcode.Store:
		if profiling {
			return func(env *Env) {
				r := env.Regs
				raw := r[a].I
				env.Addrs[pc] = raw
				ok := (r[g].I != 0) == want
				env.Committed[pc] = ok
				if ok {
					env.Bits[bb] |= mask
					env.ncommit++
					addr := clamp(raw, int64(len(env.Mem))-1)
					if env.Olds != nil {
						env.Olds[pc] = env.Mem[addr]
					}
					env.Mem[addr] = r[b]
				}
			}
		}
		return func(env *Env) {
			r := env.Regs
			if (r[g].I != 0) == want {
				env.Bits[bb] |= mask
				env.ncommit++
				env.Mem[clamp(r[a].I, int64(len(env.Mem))-1)] = r[b]
			}
		}
	case bcode.PrintI, bcode.PrintF:
		isFloat := in.Op == bcode.PrintF
		if profiling {
			return func(env *Env) {
				ok := (env.Regs[g].I != 0) == want
				env.Committed[pc] = ok
				if ok {
					env.Bits[bb] |= mask
					env.ncommit++
					env.Print(env.Regs[a], isFloat)
				}
			}
		}
		return func(env *Env) {
			if (env.Regs[g].I != 0) == want {
				env.Bits[bb] |= mask
				env.ncommit++
				env.Print(env.Regs[a], isFloat)
			}
		}
	case bcode.Exit:
		if profiling {
			return func(env *Env) {
				ok := (env.Regs[g].I != 0) == want
				env.Committed[pc] = ok
				if ok {
					env.Bits[bb] |= mask
					env.ncommit++
					if env.taken >= 0 {
						if env.dup < 0 {
							env.dup = pc
						}
						return
					}
					env.taken = pc
				}
			}
		}
		return func(env *Env) {
			if (env.Regs[g].I != 0) == want {
				env.Bits[bb] |= mask
				env.ncommit++
				if env.taken >= 0 {
					if env.dup < 0 {
						env.dup = pc
					}
					return
				}
				env.taken = pc
			}
		}
	case bcode.Nop:
		// Only the guard bit is observable (a discarded guarded result).
		if profiling {
			return func(env *Env) {
				ok := (env.Regs[g].I != 0) == want
				env.Committed[pc] = ok
				if ok {
					env.Bits[bb] |= mask
					env.ncommit++
				}
			}
		}
		return func(env *Env) {
			if (env.Regs[g].I != 0) == want {
				env.Bits[bb] |= mask
				env.ncommit++
			}
		}
	default:
		// Guarded pure ops: handled by the two stages below.
	}

	// Hot guarded pure ops get fully inline closures — speculative moves and
	// arithmetic are the bulk of a decision tree's guarded instructions, and
	// the generic tail below pays an indirect evaluator call per execution.
	switch in.Op {
	case bcode.Move:
		if profiling {
			return func(env *Env) {
				r := env.Regs
				ok := (r[g].I != 0) == want
				env.Committed[pc] = ok
				if ok {
					env.Bits[bb] |= mask
					env.ncommit++
					r[d] = r[a]
				}
			}
		}
		return func(env *Env) {
			r := env.Regs
			if (r[g].I != 0) == want {
				env.Bits[bb] |= mask
				env.ncommit++
				r[d] = r[a]
			}
		}
	case bcode.Add:
		if profiling {
			return func(env *Env) {
				r := env.Regs
				ok := (r[g].I != 0) == want
				env.Committed[pc] = ok
				if ok {
					env.Bits[bb] |= mask
					env.ncommit++
					r[d] = intV(r[a].I + r[b].I)
				}
			}
		}
		return func(env *Env) {
			r := env.Regs
			if (r[g].I != 0) == want {
				env.Bits[bb] |= mask
				env.ncommit++
				r[d] = intV(r[a].I + r[b].I)
			}
		}
	case bcode.Sub:
		if profiling {
			return func(env *Env) {
				r := env.Regs
				ok := (r[g].I != 0) == want
				env.Committed[pc] = ok
				if ok {
					env.Bits[bb] |= mask
					env.ncommit++
					r[d] = intV(r[a].I - r[b].I)
				}
			}
		}
		return func(env *Env) {
			r := env.Regs
			if (r[g].I != 0) == want {
				env.Bits[bb] |= mask
				env.ncommit++
				r[d] = intV(r[a].I - r[b].I)
			}
		}
	case bcode.Mul:
		if profiling {
			return func(env *Env) {
				r := env.Regs
				ok := (r[g].I != 0) == want
				env.Committed[pc] = ok
				if ok {
					env.Bits[bb] |= mask
					env.ncommit++
					r[d] = intV(r[a].I * r[b].I)
				}
			}
		}
		return func(env *Env) {
			r := env.Regs
			if (r[g].I != 0) == want {
				env.Bits[bb] |= mask
				env.ncommit++
				r[d] = intV(r[a].I * r[b].I)
			}
		}
	case bcode.FAdd:
		if profiling {
			return func(env *Env) {
				r := env.Regs
				ok := (r[g].I != 0) == want
				env.Committed[pc] = ok
				if ok {
					env.Bits[bb] |= mask
					env.ncommit++
					r[d] = fltV(r[a].F + r[b].F)
				}
			}
		}
		return func(env *Env) {
			r := env.Regs
			if (r[g].I != 0) == want {
				env.Bits[bb] |= mask
				env.ncommit++
				r[d] = fltV(r[a].F + r[b].F)
			}
		}
	case bcode.FSub:
		if profiling {
			return func(env *Env) {
				r := env.Regs
				ok := (r[g].I != 0) == want
				env.Committed[pc] = ok
				if ok {
					env.Bits[bb] |= mask
					env.ncommit++
					r[d] = fltV(r[a].F - r[b].F)
				}
			}
		}
		return func(env *Env) {
			r := env.Regs
			if (r[g].I != 0) == want {
				env.Bits[bb] |= mask
				env.ncommit++
				r[d] = fltV(r[a].F - r[b].F)
			}
		}
	case bcode.FMul:
		if profiling {
			return func(env *Env) {
				r := env.Regs
				ok := (r[g].I != 0) == want
				env.Committed[pc] = ok
				if ok {
					env.Bits[bb] |= mask
					env.ncommit++
					r[d] = fltV(r[a].F * r[b].F)
				}
			}
		}
		return func(env *Env) {
			r := env.Regs
			if (r[g].I != 0) == want {
				env.Bits[bb] |= mask
				env.ncommit++
				r[d] = fltV(r[a].F * r[b].F)
			}
		}
	default:
		// Cold guarded pure ops: the generic evaluator tail below.
	}

	// Guarded pure long tail: a captured evaluator computes the value only
	// when the guard commits (pure ops have no observable effect otherwise).
	var ev func(x, y ir.Value) ir.Value
	if in.Op == bcode.Const {
		v := e.consts[a]
		ev = func(x, y ir.Value) ir.Value { return v }
		a = g // Const's A is a pool index, not a register; don't read it
	} else {
		ev = evalFor(in.Op)
	}
	if b < 0 {
		b = a // one-operand forms: read a harmless in-range register
	}
	if profiling {
		return func(env *Env) {
			r := env.Regs
			ok := (r[g].I != 0) == want
			env.Committed[pc] = ok
			if ok {
				env.Bits[bb] |= mask
				env.ncommit++
				r[d] = ev(r[a], r[b])
			}
		}
	}
	return func(env *Env) {
		r := env.Regs
		if (r[g].I != 0) == want {
			env.Bits[bb] |= mask
			env.ncommit++
			r[d] = ev(r[a], r[b])
		}
	}
}

// cmpExit emits the compare+exit superinstruction: one closure computes the
// compare, writes the (observable) boolean register, and resolves the exit
// whose guard the compare feeds — commit bit, duplicate-exit detection and
// profiling commit sample included.
func (e *emitter) cmpExit(pc int, profiling bool) step {
	in, ex := e.code[pc], e.code[pc+1]
	cmp := cmpFor(in.Op)
	a, b, d := int(in.A), int(in.B), int(in.Dest)
	want := !ex.GNeg
	bb, mask := int(ex.GIdx>>3), byte(1)<<(ex.GIdx&7)
	exitPC := pc + 1
	if profiling {
		return func(env *Env) {
			r := env.Regs
			v := cmp(r[a], r[b])
			r[d] = b2i(v)
			ok := v == want
			env.Committed[exitPC] = ok
			if ok {
				env.Bits[bb] |= mask
				env.ncommit++
				if env.taken >= 0 {
					if env.dup < 0 {
						env.dup = exitPC
					}
					return
				}
				env.taken = exitPC
			}
		}
	}
	return func(env *Env) {
		r := env.Regs
		v := cmp(r[a], r[b])
		r[d] = b2i(v)
		if v == want {
			env.Bits[bb] |= mask
			env.ncommit++
			if env.taken >= 0 {
				if env.dup < 0 {
					env.dup = exitPC
				}
				return
			}
			env.taken = exitPC
		}
	}
}

// constAlu emits the const+arith superinstruction: the constant write (still
// observable) and the operation it feeds execute in one closure. The
// operation reads its operands after the constant lands, so sequential
// semantics hold even when registers overlap.
func (e *emitter) constAlu(pc int) step {
	in, alu := e.code[pc], e.code[pc+1]
	cv := e.consts[in.A]
	cd := int(in.Dest)
	a, b, d := int(alu.A), int(alu.B), int(alu.Dest)
	switch alu.Op {
	case bcode.Add:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = intV(r[a].I + r[b].I) }
	case bcode.Sub:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = intV(r[a].I - r[b].I) }
	case bcode.Mul:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = intV(r[a].I * r[b].I) }
	case bcode.And:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = intV(r[a].I & r[b].I) }
	case bcode.Or:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = intV(r[a].I | r[b].I) }
	case bcode.Xor:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = intV(r[a].I ^ r[b].I) }
	case bcode.Shl:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = intV(r[a].I << (uint64(r[b].I) & 63)) }
	case bcode.Shr:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = intV(r[a].I >> (uint64(r[b].I) & 63)) }
	case bcode.CmpEQ:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = b2i(r[a].I == r[b].I) }
	case bcode.CmpNE:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = b2i(r[a].I != r[b].I) }
	case bcode.CmpLT:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = b2i(r[a].I < r[b].I) }
	case bcode.CmpLE:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = b2i(r[a].I <= r[b].I) }
	case bcode.CmpGT:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = b2i(r[a].I > r[b].I) }
	case bcode.CmpGE:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = b2i(r[a].I >= r[b].I) }
	case bcode.FAdd:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = fltV(r[a].F + r[b].F) }
	case bcode.FSub:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = fltV(r[a].F - r[b].F) }
	case bcode.FMul:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = fltV(r[a].F * r[b].F) }
	case bcode.FDiv:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = fltV(r[a].F / r[b].F) }
	case bcode.FCmpEQ:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = b2i(r[a].F == r[b].F) }
	case bcode.FCmpNE:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = b2i(r[a].F != r[b].F) }
	case bcode.FCmpLT:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = b2i(r[a].F < r[b].F) }
	case bcode.FCmpLE:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = b2i(r[a].F <= r[b].F) }
	case bcode.FCmpGT:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = b2i(r[a].F > r[b].F) }
	case bcode.FCmpGE:
		return func(env *Env) { r := env.Regs; r[cd] = cv; r[d] = b2i(r[a].F >= r[b].F) }
	default:
		panic("ncode: const+arith fusion planned for unfusable op " + alu.Op.String())
	}
}

// cmpFor returns the boolean evaluator of one compare opcode.
func cmpFor(op bcode.Op) func(x, y ir.Value) bool {
	switch op {
	case bcode.CmpEQ:
		return func(x, y ir.Value) bool { return x.I == y.I }
	case bcode.CmpNE:
		return func(x, y ir.Value) bool { return x.I != y.I }
	case bcode.CmpLT:
		return func(x, y ir.Value) bool { return x.I < y.I }
	case bcode.CmpLE:
		return func(x, y ir.Value) bool { return x.I <= y.I }
	case bcode.CmpGT:
		return func(x, y ir.Value) bool { return x.I > y.I }
	case bcode.CmpGE:
		return func(x, y ir.Value) bool { return x.I >= y.I }
	case bcode.FCmpEQ:
		return func(x, y ir.Value) bool { return x.F == y.F }
	case bcode.FCmpNE:
		return func(x, y ir.Value) bool { return x.F != y.F }
	case bcode.FCmpLT:
		return func(x, y ir.Value) bool { return x.F < y.F }
	case bcode.FCmpLE:
		return func(x, y ir.Value) bool { return x.F <= y.F }
	case bcode.FCmpGT:
		return func(x, y ir.Value) bool { return x.F > y.F }
	case bcode.FCmpGE:
		return func(x, y ir.Value) bool { return x.F >= y.F }
	default:
		panic("ncode: cmpFor on non-compare " + op.String())
	}
}

// evalFor returns the value evaluator of one pure opcode, used by the guarded
// long-tail path (hot unguarded ops are emitted inline in one).
func evalFor(op bcode.Op) func(x, y ir.Value) ir.Value {
	switch op {
	case bcode.Move:
		return func(x, y ir.Value) ir.Value { return x }
	case bcode.Add:
		return func(x, y ir.Value) ir.Value { return intV(x.I + y.I) }
	case bcode.Sub:
		return func(x, y ir.Value) ir.Value { return intV(x.I - y.I) }
	case bcode.Mul:
		return func(x, y ir.Value) ir.Value { return intV(x.I * y.I) }
	case bcode.Div:
		return func(x, y ir.Value) ir.Value { return divV(x.I, y.I) }
	case bcode.Rem:
		return func(x, y ir.Value) ir.Value { return remV(x.I, y.I) }
	case bcode.Neg:
		return func(x, y ir.Value) ir.Value { return intV(-x.I) }
	case bcode.And:
		return func(x, y ir.Value) ir.Value { return intV(x.I & y.I) }
	case bcode.Or:
		return func(x, y ir.Value) ir.Value { return intV(x.I | y.I) }
	case bcode.Xor:
		return func(x, y ir.Value) ir.Value { return intV(x.I ^ y.I) }
	case bcode.Not:
		return func(x, y ir.Value) ir.Value { return intV(^x.I) }
	case bcode.Shl:
		return func(x, y ir.Value) ir.Value { return intV(x.I << (uint64(y.I) & 63)) }
	case bcode.Shr:
		return func(x, y ir.Value) ir.Value { return intV(x.I >> (uint64(y.I) & 63)) }
	case bcode.BNot:
		return func(x, y ir.Value) ir.Value { return b2i(x.I == 0) }
	case bcode.BAnd:
		return func(x, y ir.Value) ir.Value { return b2i(x.I != 0 && y.I != 0) }
	case bcode.BAndNot:
		return func(x, y ir.Value) ir.Value { return b2i(x.I != 0 && y.I == 0) }
	case bcode.CmpEQ, bcode.CmpNE, bcode.CmpLT, bcode.CmpLE, bcode.CmpGT, bcode.CmpGE,
		bcode.FCmpEQ, bcode.FCmpNE, bcode.FCmpLT, bcode.FCmpLE, bcode.FCmpGT, bcode.FCmpGE:
		cmp := cmpFor(op)
		return func(x, y ir.Value) ir.Value { return b2i(cmp(x, y)) }
	case bcode.FAdd:
		return func(x, y ir.Value) ir.Value { return fltV(x.F + y.F) }
	case bcode.FSub:
		return func(x, y ir.Value) ir.Value { return fltV(x.F - y.F) }
	case bcode.FMul:
		return func(x, y ir.Value) ir.Value { return fltV(x.F * y.F) }
	case bcode.FDiv:
		return func(x, y ir.Value) ir.Value { return fltV(x.F / y.F) }
	case bcode.FNeg:
		return func(x, y ir.Value) ir.Value { return fltV(-x.F) }
	case bcode.CvtIF:
		return func(x, y ir.Value) ir.Value { return fltV(float64(x.I)) }
	case bcode.CvtFI:
		return func(x, y ir.Value) ir.Value { return cvtFI(x.F) }
	case bcode.Sqrt:
		return func(x, y ir.Value) ir.Value { return fltV(math.Sqrt(x.F)) }
	case bcode.FAbs:
		return func(x, y ir.Value) ir.Value { return fltV(math.Abs(x.F)) }
	case bcode.Sin:
		return func(x, y ir.Value) ir.Value { return fltV(math.Sin(x.F)) }
	case bcode.Cos:
		return func(x, y ir.Value) ir.Value { return fltV(math.Cos(x.F)) }
	case bcode.Exp:
		return func(x, y ir.Value) ir.Value { return fltV(math.Exp(x.F)) }
	case bcode.Log:
		return func(x, y ir.Value) ir.Value { return fltV(math.Log(x.F)) }
	default:
		panic("ncode: evalFor on non-pure " + op.String())
	}
}

// clamp bounds a speculative address into the memory image (non-faulting
// memory: a garbage address from a squashed path reads or writes a real word
// instead of trapping).
func clamp(a, memHi int64) int64 {
	if a < 0 {
		return 0
	}
	if a > memHi {
		return memHi
	}
	return a
}

// divV and remV implement the non-trapping integer division semantics shared
// by all three engines: x/0 = 0, MinInt64/-1 = MinInt64, MinInt64%-1 = 0.
func divV(x, d int64) ir.Value {
	switch {
	case d == 0:
		return ir.Value{}
	case x == math.MinInt64 && d == -1:
		return intV(math.MinInt64)
	}
	return intV(x / d)
}

func remV(x, d int64) ir.Value {
	switch {
	case d == 0:
		return ir.Value{}
	case x == math.MinInt64 && d == -1:
		return intV(0)
	}
	return intV(x % d)
}

// intV, fltV, b2i and cvtFI mirror the reference interpreter's value
// constructors exactly (both views of the machine word are kept in sync).
func intV(i int64) ir.Value   { return ir.Value{I: i, F: float64(i)} }
func fltV(f float64) ir.Value { return ir.Value{I: int64(f), F: f} }

func b2i(b bool) ir.Value {
	if b {
		return ir.Value{I: 1, F: 1}
	}
	return ir.Value{}
}

func cvtFI(f float64) ir.Value {
	if math.IsNaN(f) {
		return ir.Value{}
	}
	if f > math.MaxInt64 {
		return intV(math.MaxInt64)
	}
	if f < math.MinInt64 {
		return intV(math.MinInt64)
	}
	return intV(int64(f))
}
