package sim

import (
	"specdis/internal/ir"
	"specdis/internal/ncode"
)

// execNC executes one tree through its compiled closure chain, mirroring
// execBC exactly: same fuel charge, operation accounting, commit bits, trace
// patterns and profiling. Trees the compiler declined fall back to the tree
// walker.
//
// Under adaptive tiering (Runner.TierUp > 0) the tree starts on the bytecode
// engine and is promoted here once its per-run execution count crosses the
// threshold — the results are byte-identical on every tier, so promotion is
// invisible to everything but the wall clock and the compile counters.
func (r *Runner) execNC(t *ir.Tree, regs []ir.Value) (*ir.Op, error) {
	c := r.ctx(t)
	if c.nc == nil {
		if c.bc == nil {
			return r.execTree(t, regs)
		}
		// The tree is on the bytecode rung; count this run's executions and
		// promote at the threshold. tiered keeps a declined promotion from
		// being retried every execution.
		c.execs++
		if c.tiered || c.execs < r.TierUp {
			return r.execBC(t, regs)
		}
		c.tiered = true
		if c.nc = r.ncodeProg(t); c.nc == nil {
			return r.execBC(t, regs)
		}
		c.nenv = ncode.Env{Mem: r.mem, Bits: c.bits, Print: r.printVal}
		if r.Prof != nil {
			c.nenv.Committed = c.committed
			c.nenv.Addrs = c.addrs
			c.nenv.Olds = c.olds()
		}
		if ctrs := r.NCode.Counters(); ctrs != nil {
			ctrs.TierUps.Add(1)
		}
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
	c.nenv.Regs = regs
	if c.keyed != nil {
		c.keyed.snapshot(regs)
	}
	takenSeq, dupSeq, ncommit := c.nc.Exec(&c.nenv, r.Prof != nil)
	return r.finishPacked(t, c, takenSeq, dupSeq, ncommit)
}

// ncodeProg resolves the tree's compiled closure chain through the Runner's
// cache (creating a private cache on first use when the caller supplied
// none).
func (r *Runner) ncodeProg(t *ir.Tree) *ncode.Prog {
	if r.NCode == nil {
		r.NCode = ncode.NewCache(nil)
	}
	return r.NCode.Get(t)
}
