package ncode

import (
	"specdis/internal/bcode"
)

// pair emits one closure for two adjacent unguarded instructions from the
// hot-pair catalog (see pairable). Both architectural writes happen in
// order, and the second operation reads its operands after the first one's
// result lands, so sequential semantics hold even when registers overlap.
// The one dataflow-aware combo is address arithmetic feeding a load: when
// the load's address register is exactly the sum just computed, the closure
// forwards the value instead of re-reading the register.
func (e *emitter) pair(pc int, profiling bool) step {
	in, nx := e.code[pc], e.code[pc+1]
	a1, b1, d1 := int(in.A), int(in.B), int(in.Dest)
	a2, b2, d2 := int(nx.A), int(nx.B), int(nx.Dest)

	switch in.Op {
	case bcode.Const:
		// Const → Const
		v1, v2 := e.consts[a1], e.consts[a2]
		return func(env *Env) { r := env.Regs; r[d1] = v1; r[d2] = v2 }
	case bcode.Move:
		// Move → Move
		return func(env *Env) { r := env.Regs; r[d1] = r[a1]; r[d2] = r[a2] }
	case bcode.Add, bcode.Sub:
		sub1 := in.Op == bcode.Sub
		if nx.Op == bcode.Load {
			return e.aluLoad(pc, sub1, profiling)
		}
		// {Add,Sub} → {Add,Sub,Mul}
		if sub1 {
			switch nx.Op {
			case bcode.Add:
				return func(env *Env) {
					r := env.Regs
					r[d1] = intV(r[a1].I - r[b1].I)
					r[d2] = intV(r[a2].I + r[b2].I)
				}
			case bcode.Sub:
				return func(env *Env) {
					r := env.Regs
					r[d1] = intV(r[a1].I - r[b1].I)
					r[d2] = intV(r[a2].I - r[b2].I)
				}
			case bcode.Mul:
				return func(env *Env) {
					r := env.Regs
					r[d1] = intV(r[a1].I - r[b1].I)
					r[d2] = intV(r[a2].I * r[b2].I)
				}
			default:
				// Uncatalogued combo: the panic below reports it.
			}
		}
		switch nx.Op {
		case bcode.Add:
			return func(env *Env) {
				r := env.Regs
				r[d1] = intV(r[a1].I + r[b1].I)
				r[d2] = intV(r[a2].I + r[b2].I)
			}
		case bcode.Sub:
			return func(env *Env) {
				r := env.Regs
				r[d1] = intV(r[a1].I + r[b1].I)
				r[d2] = intV(r[a2].I - r[b2].I)
			}
		case bcode.Mul:
			return func(env *Env) {
				r := env.Regs
				r[d1] = intV(r[a1].I + r[b1].I)
				r[d2] = intV(r[a2].I * r[b2].I)
			}
		default:
			// Uncatalogued combo: the panic below reports it.
		}
	case bcode.Load:
		// Load → {Load, Add, Sub, FMul, FAdd, FSub}; the load's address is
		// sampled under profiling (the dependence profiler observes every
		// issued access). Each combo is written out inline — composing from
		// sub-closures would reintroduce the indirect call fusion removes.
		if profiling {
			switch nx.Op {
			case bcode.Load:
				return func(env *Env) {
					r := env.Regs
					hi := int64(len(env.Mem)) - 1
					raw := r[a1].I
					env.Addrs[pc] = raw
					r[d1] = env.Mem[clamp(raw, hi)]
					raw2 := r[a2].I
					env.Addrs[pc+1] = raw2
					r[d2] = env.Mem[clamp(raw2, hi)]
				}
			case bcode.Add:
				return func(env *Env) {
					r := env.Regs
					raw := r[a1].I
					env.Addrs[pc] = raw
					r[d1] = env.Mem[clamp(raw, int64(len(env.Mem))-1)]
					r[d2] = intV(r[a2].I + r[b2].I)
				}
			case bcode.Sub:
				return func(env *Env) {
					r := env.Regs
					raw := r[a1].I
					env.Addrs[pc] = raw
					r[d1] = env.Mem[clamp(raw, int64(len(env.Mem))-1)]
					r[d2] = intV(r[a2].I - r[b2].I)
				}
			case bcode.FMul:
				return func(env *Env) {
					r := env.Regs
					raw := r[a1].I
					env.Addrs[pc] = raw
					r[d1] = env.Mem[clamp(raw, int64(len(env.Mem))-1)]
					r[d2] = fltV(r[a2].F * r[b2].F)
				}
			case bcode.FAdd:
				return func(env *Env) {
					r := env.Regs
					raw := r[a1].I
					env.Addrs[pc] = raw
					r[d1] = env.Mem[clamp(raw, int64(len(env.Mem))-1)]
					r[d2] = fltV(r[a2].F + r[b2].F)
				}
			case bcode.FSub:
				return func(env *Env) {
					r := env.Regs
					raw := r[a1].I
					env.Addrs[pc] = raw
					r[d1] = env.Mem[clamp(raw, int64(len(env.Mem))-1)]
					r[d2] = fltV(r[a2].F - r[b2].F)
				}
			default:
				// Uncatalogued combo: the panic below reports it.
			}
			break
		}
		switch nx.Op {
		case bcode.Load:
			return func(env *Env) {
				r := env.Regs
				hi := int64(len(env.Mem)) - 1
				r[d1] = env.Mem[clamp(r[a1].I, hi)]
				r[d2] = env.Mem[clamp(r[a2].I, hi)]
			}
		case bcode.Add:
			return func(env *Env) {
				r := env.Regs
				r[d1] = env.Mem[clamp(r[a1].I, int64(len(env.Mem))-1)]
				r[d2] = intV(r[a2].I + r[b2].I)
			}
		case bcode.Sub:
			return func(env *Env) {
				r := env.Regs
				r[d1] = env.Mem[clamp(r[a1].I, int64(len(env.Mem))-1)]
				r[d2] = intV(r[a2].I - r[b2].I)
			}
		case bcode.FMul:
			return func(env *Env) {
				r := env.Regs
				r[d1] = env.Mem[clamp(r[a1].I, int64(len(env.Mem))-1)]
				r[d2] = fltV(r[a2].F * r[b2].F)
			}
		case bcode.FAdd:
			return func(env *Env) {
				r := env.Regs
				r[d1] = env.Mem[clamp(r[a1].I, int64(len(env.Mem))-1)]
				r[d2] = fltV(r[a2].F + r[b2].F)
			}
		case bcode.FSub:
			return func(env *Env) {
				r := env.Regs
				r[d1] = env.Mem[clamp(r[a1].I, int64(len(env.Mem))-1)]
				r[d2] = fltV(r[a2].F - r[b2].F)
			}
		default:
			// Uncatalogued combo: the panic below reports it.
		}
	case bcode.FMul:
		switch nx.Op {
		case bcode.FMul:
			return func(env *Env) {
				r := env.Regs
				r[d1] = fltV(r[a1].F * r[b1].F)
				r[d2] = fltV(r[a2].F * r[b2].F)
			}
		case bcode.FAdd:
			return func(env *Env) {
				r := env.Regs
				r[d1] = fltV(r[a1].F * r[b1].F)
				r[d2] = fltV(r[a2].F + r[b2].F)
			}
		case bcode.FSub:
			return func(env *Env) {
				r := env.Regs
				r[d1] = fltV(r[a1].F * r[b1].F)
				r[d2] = fltV(r[a2].F - r[b2].F)
			}
		default:
			// Uncatalogued combo: the panic below reports it.
		}
	case bcode.FAdd:
		switch nx.Op {
		case bcode.FMul:
			return func(env *Env) {
				r := env.Regs
				r[d1] = fltV(r[a1].F + r[b1].F)
				r[d2] = fltV(r[a2].F * r[b2].F)
			}
		case bcode.FAdd:
			return func(env *Env) {
				r := env.Regs
				r[d1] = fltV(r[a1].F + r[b1].F)
				r[d2] = fltV(r[a2].F + r[b2].F)
			}
		case bcode.FSub:
			return func(env *Env) {
				r := env.Regs
				r[d1] = fltV(r[a1].F + r[b1].F)
				r[d2] = fltV(r[a2].F - r[b2].F)
			}
		default:
			// Uncatalogued combo: the panic below reports it.
		}
	case bcode.FSub:
		switch nx.Op {
		case bcode.FMul:
			return func(env *Env) {
				r := env.Regs
				r[d1] = fltV(r[a1].F - r[b1].F)
				r[d2] = fltV(r[a2].F * r[b2].F)
			}
		case bcode.FAdd:
			return func(env *Env) {
				r := env.Regs
				r[d1] = fltV(r[a1].F - r[b1].F)
				r[d2] = fltV(r[a2].F + r[b2].F)
			}
		case bcode.FSub:
			return func(env *Env) {
				r := env.Regs
				r[d1] = fltV(r[a1].F - r[b1].F)
				r[d2] = fltV(r[a2].F - r[b2].F)
			}
		default:
			// Uncatalogued combo: the panic below reports it.
		}
	default:
		// Not a catalogued head: the panic below reports it.
	}
	panic("ncode: pair fusion planned for uncatalogued ops " +
		in.Op.String() + "/" + nx.Op.String())
}

// aluLoad emits the address-arithmetic-plus-load superinstruction. When the
// load addresses the sum just computed, the value is forwarded; otherwise
// the address register is read normally.
func (e *emitter) aluLoad(pc int, sub bool, profiling bool) step {
	in, ld := e.code[pc], e.code[pc+1]
	a1, b1, d1 := int(in.A), int(in.B), int(in.Dest)
	a2, d2 := int(ld.A), int(ld.Dest)
	ldPC := pc + 1
	if a2 == d1 {
		if profiling {
			return func(env *Env) {
				r := env.Regs
				v := r[a1].I + r[b1].I
				if sub {
					v = r[a1].I - r[b1].I
				}
				r[d1] = intV(v)
				env.Addrs[ldPC] = v
				r[d2] = env.Mem[clamp(v, int64(len(env.Mem))-1)]
			}
		}
		if sub {
			return func(env *Env) {
				r := env.Regs
				v := r[a1].I - r[b1].I
				r[d1] = intV(v)
				r[d2] = env.Mem[clamp(v, int64(len(env.Mem))-1)]
			}
		}
		return func(env *Env) {
			r := env.Regs
			v := r[a1].I + r[b1].I
			r[d1] = intV(v)
			r[d2] = env.Mem[clamp(v, int64(len(env.Mem))-1)]
		}
	}
	if profiling {
		return func(env *Env) {
			r := env.Regs
			if sub {
				r[d1] = intV(r[a1].I - r[b1].I)
			} else {
				r[d1] = intV(r[a1].I + r[b1].I)
			}
			raw := r[a2].I
			env.Addrs[ldPC] = raw
			r[d2] = env.Mem[clamp(raw, int64(len(env.Mem))-1)]
		}
	}
	if sub {
		return func(env *Env) {
			r := env.Regs
			r[d1] = intV(r[a1].I - r[b1].I)
			r[d2] = env.Mem[clamp(r[a2].I, int64(len(env.Mem))-1)]
		}
	}
	return func(env *Env) {
		r := env.Regs
		r[d1] = intV(r[a1].I + r[b1].I)
		r[d2] = env.Mem[clamp(r[a2].I, int64(len(env.Mem))-1)]
	}
}
