package bcode

import (
	"math"

	"specdis/internal/ir"
)

// Env is the machine state one tree execution reads and mutates. The
// executor touches nothing else, so the caller (internal/sim's Runner) keeps
// ownership of memory, output and trace recording.
type Env struct {
	// Regs is the current function invocation's register frame.
	Regs []ir.Value
	// Mem is the program's flat memory image.
	Mem []ir.Value
	// Bits receives the packed guard-commit bits (bit GIdx set iff the
	// guarded instruction committed), in the trace wire layout. The caller
	// zeroes it before each execution; it must hold NumGuarded bits.
	Bits []byte
	// Print emits one committed print op's value.
	Print func(v ir.Value, isFloat bool)

	// Profiling asks for the per-Seq commit and address tables used by
	// profiling runs: Committed[seq] for guarded instructions and
	// Addrs[seq] for memory instructions — the address operand as computed,
	// before the clamp, which is what an address compare sees. Both are
	// indexed by instruction position (== ir.Op.Seq) and must cover the
	// whole program. Olds, when non-nil under Profiling, receives at
	// Olds[seq] the word each committed store overwrote, so a caller can
	// restore the memory a tree execution started from.
	Profiling bool
	Committed []bool
	Addrs     []int64
	Olds      []ir.Value
}

// Exec runs the program over env and reports the taken exit's instruction
// index (-1 if no exit committed), the index of a second committed exit
// (-1 normally; execution stops there when it happens, mirroring the
// reference interpreter's error), and how many guarded instructions
// committed.
func (p *Prog) Exec(env *Env) (taken, dup int, ncommit int64) {
	code := p.Code
	regs := env.Regs
	mem := env.Mem
	bits := env.Bits
	consts := p.Consts
	memHi := int64(len(mem)) - 1
	profiling := env.Profiling
	taken, dup = -1, -1

	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		if g := in.Guard; g >= 0 {
			ok := (regs[g].I != 0) != in.GNeg
			if profiling {
				env.Committed[pc] = ok
			}
			if !ok {
				// Squashed: no architectural effect. Profiling still
				// samples the (speculatively computed) memory address, as
				// the dependence profiler observes every issued access.
				if profiling && (in.Op == Load || in.Op == Store) {
					env.specAddr(pc, regs[in.A].I, memHi, true)
				}
				continue
			}
			bits[in.GIdx>>3] |= 1 << (in.GIdx & 7)
			ncommit++
		}
		switch in.Op {
		case Nop:
		case Const:
			regs[in.Dest] = consts[in.A]
		case Move:
			regs[in.Dest] = regs[in.A]
		case Add:
			regs[in.Dest] = intV(regs[in.A].I + regs[in.B].I)
		case Sub:
			regs[in.Dest] = intV(regs[in.A].I - regs[in.B].I)
		case Mul:
			regs[in.Dest] = intV(regs[in.A].I * regs[in.B].I)
		case Div:
			x, d := regs[in.A].I, regs[in.B].I
			var v ir.Value
			switch {
			case d == 0:
			case x == math.MinInt64 && d == -1:
				v = intV(math.MinInt64)
			default:
				v = intV(x / d)
			}
			regs[in.Dest] = v
		case Rem:
			x, d := regs[in.A].I, regs[in.B].I
			var v ir.Value
			switch {
			case d == 0:
			case x == math.MinInt64 && d == -1:
				v = intV(0)
			default:
				v = intV(x % d)
			}
			regs[in.Dest] = v
		case Neg:
			regs[in.Dest] = intV(-regs[in.A].I)
		case And:
			regs[in.Dest] = intV(regs[in.A].I & regs[in.B].I)
		case Or:
			regs[in.Dest] = intV(regs[in.A].I | regs[in.B].I)
		case Xor:
			regs[in.Dest] = intV(regs[in.A].I ^ regs[in.B].I)
		case Not:
			regs[in.Dest] = intV(^regs[in.A].I)
		case Shl:
			regs[in.Dest] = intV(regs[in.A].I << (uint64(regs[in.B].I) & 63))
		case Shr:
			regs[in.Dest] = intV(regs[in.A].I >> (uint64(regs[in.B].I) & 63))
		case BNot:
			regs[in.Dest] = b2i(regs[in.A].I == 0)
		case BAnd:
			regs[in.Dest] = b2i(regs[in.A].I != 0 && regs[in.B].I != 0)
		case BAndNot:
			regs[in.Dest] = b2i(regs[in.A].I != 0 && regs[in.B].I == 0)
		case CmpEQ:
			regs[in.Dest] = b2i(regs[in.A].I == regs[in.B].I)
		case CmpNE:
			regs[in.Dest] = b2i(regs[in.A].I != regs[in.B].I)
		case CmpLT:
			regs[in.Dest] = b2i(regs[in.A].I < regs[in.B].I)
		case CmpLE:
			regs[in.Dest] = b2i(regs[in.A].I <= regs[in.B].I)
		case CmpGT:
			regs[in.Dest] = b2i(regs[in.A].I > regs[in.B].I)
		case CmpGE:
			regs[in.Dest] = b2i(regs[in.A].I >= regs[in.B].I)
		case FAdd:
			regs[in.Dest] = fltV(regs[in.A].F + regs[in.B].F)
		case FSub:
			regs[in.Dest] = fltV(regs[in.A].F - regs[in.B].F)
		case FMul:
			regs[in.Dest] = fltV(regs[in.A].F * regs[in.B].F)
		case FDiv:
			regs[in.Dest] = fltV(regs[in.A].F / regs[in.B].F)
		case FNeg:
			regs[in.Dest] = fltV(-regs[in.A].F)
		case FCmpEQ:
			regs[in.Dest] = b2i(regs[in.A].F == regs[in.B].F)
		case FCmpNE:
			regs[in.Dest] = b2i(regs[in.A].F != regs[in.B].F)
		case FCmpLT:
			regs[in.Dest] = b2i(regs[in.A].F < regs[in.B].F)
		case FCmpLE:
			regs[in.Dest] = b2i(regs[in.A].F <= regs[in.B].F)
		case FCmpGT:
			regs[in.Dest] = b2i(regs[in.A].F > regs[in.B].F)
		case FCmpGE:
			regs[in.Dest] = b2i(regs[in.A].F >= regs[in.B].F)
		case CvtIF:
			regs[in.Dest] = fltV(float64(regs[in.A].I))
		case CvtFI:
			regs[in.Dest] = cvtFI(regs[in.A].F)
		case Sqrt:
			regs[in.Dest] = fltV(math.Sqrt(regs[in.A].F))
		case FAbs:
			regs[in.Dest] = fltV(math.Abs(regs[in.A].F))
		case Sin:
			regs[in.Dest] = fltV(math.Sin(regs[in.A].F))
		case Cos:
			regs[in.Dest] = fltV(math.Cos(regs[in.A].F))
		case Exp:
			regs[in.Dest] = fltV(math.Exp(regs[in.A].F))
		case Log:
			regs[in.Dest] = fltV(math.Log(regs[in.A].F))
		case Load:
			regs[in.Dest] = mem[env.specAddr(pc, regs[in.A].I, memHi, profiling)]
		case Store:
			a := env.specAddr(pc, regs[in.A].I, memHi, profiling)
			if env.Olds != nil {
				env.Olds[pc] = mem[a]
			}
			mem[a] = regs[in.B]
		case PrintI:
			env.Print(regs[in.A], false)
		case PrintF:
			env.Print(regs[in.A], true)
		case Exit:
			if taken >= 0 {
				dup = pc
				return
			}
			taken = pc
		}
	}
	return
}

// specAddr resolves one memory instruction's effective address: the
// speculative address is clamped into the memory image (non-faulting memory,
// so a garbage address from a squashed path reads or writes a real word
// instead of trapping) and, under profiling, recorded unclamped in the
// per-Seq address table — the dependence profiler observes every issued
// access, committed or squashed. Shared by the Load, Store and
// squashed-guard paths.
func (env *Env) specAddr(pc int, a, memHi int64, profiling bool) int64 {
	if profiling {
		env.Addrs[pc] = a
	}
	if a < 0 {
		a = 0
	} else if a > memHi {
		a = memHi
	}
	return a
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
