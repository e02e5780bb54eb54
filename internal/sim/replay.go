package sim

import (
	"fmt"

	"specdis/internal/ir"
	"specdis/internal/resilience"
	"specdis/internal/trace"
)

// Plan is a pricing table: completion cycles per op for every tree, as
// produced by a scheduler for one machine configuration. Entries are stored
// as they arrive; Replayer.Replay resolves them once into a dense table
// indexed by program-wide tree index (ir.Tree.PIdx), so pricing never
// touches a pointer-keyed map.
type Plan struct {
	Name  string
	trees []*ir.Tree
	comps [][]int64
}

// NewPlan returns an empty plan.
func NewPlan(name string) *Plan {
	return &Plan{Name: name}
}

// SetTree installs the completion-cycle table for one tree (indexed by Seq).
// Setting the same tree again overwrites the earlier table.
func (p *Plan) SetTree(t *ir.Tree, comp []int64) {
	p.trees = append(p.trees, t)
	p.comps = append(p.comps, comp)
}

// planEntry is one resolved slot of a dense plan table. The tree pointer is
// kept so that an entry installed for a different program's tree (a PIdx
// collision) is detected instead of silently mis-pricing.
type planEntry struct {
	tree *ir.Tree
	comp []int64
}

// Trees returns the trees the plan has schedules for, in SetTree order.
func (p *Plan) Trees() []*ir.Tree { return p.trees }

// Drop removes the plan's schedule for the i-th (modulo entry count) SetTree
// entry — a chaos hook: replaying a trace that executed the dropped tree
// fails with a typed missing-schedule error instead of pricing. No-op on an
// empty plan.
func (p *Plan) Drop(i int) {
	if len(p.trees) == 0 {
		return
	}
	i = ((i % len(p.trees)) + len(p.trees)) % len(p.trees)
	p.trees = append(p.trees[:i], p.trees[i+1:]...)
	p.comps = append(p.comps[:i], p.comps[i+1:]...)
}

// dense lays the plan out as a table indexed by tree PIdx (entries for the
// same tree resolve to the latest SetTree call). Trees of the program
// without an entry stay nil and yield a typed missing-schedule error when
// the trace first names them.
func (p *Plan) dense(numTrees int) []planEntry {
	tab := make([]planEntry, numTrees)
	for i, t := range p.trees {
		if t.PIdx >= 0 && t.PIdx < numTrees {
			tab[t.PIdx] = planEntry{tree: t, comp: p.comps[i]}
		}
	}
	return tab
}

// Replayer prices a program under machine schedules from a recorded
// execution trace; it is the simulator's only pricer. Each distinct tree
// execution pattern — (tree, taken exit, guard-commit bits) — is priced once
// per plan, then multiplied by the pattern's total trip count from the
// trace's histogram (Trace.Hist). Not a single operand is evaluated, and the
// pricing work is proportional to the number of distinct patterns, not
// dynamic events.
//
// The trace must come from an execution-equivalent program: one whose tree
// structure (tree indices, ops, guards, exits) matches Prog's. Traces
// recorded before arc-only transformations (alias resolution, PERFECT's arc
// removal) remain valid; traces recorded before op-level transformations
// (SpD) do not.
type Replayer struct {
	Prog  *ir.Program
	Plans []*Plan
	// Shapes optionally shares tree skeletons with the interpreting Runners
	// (see ShapeCache); left nil, shapes are rebuilt per Replay.
	Shapes *ShapeCache
}

// replayCtx is the per-tree pricing context of a replay: the shared tree
// skeleton plus this replay's completion-cycle tables.
type replayCtx struct {
	*treeShape
	comp [][]int64 // [plan][Seq]: completion cycle
	base [][]int64 // [plan][exit]: max completion over unguarded on-path ops
}

// Replay prices the trace and returns the per-plan cycle totals. Ops and
// Committed are taken from the recorded run (replay performs no semantic
// work); Output is empty.
func (rp *Replayer) Replay(tr *trace.Trace) (*Result, error) {
	h, err := tr.Hist()
	if err != nil {
		return nil, err
	}
	if h.MaxFn >= len(rp.Prog.Order) {
		return nil, fmt.Errorf("sim: trace function index %d out of range", h.MaxFn)
	}
	numTrees := rp.Prog.IndexTrees()
	trees := make([]*ir.Tree, numTrees)
	for _, name := range rp.Prog.Order {
		for _, t := range rp.Prog.Funcs[name].Trees {
			trees[t.PIdx] = t
		}
	}
	planTabs := make([][]planEntry, len(rp.Plans))
	for pi, p := range rp.Plans {
		planTabs[pi] = p.dense(numTrees)
	}
	ctxes := make([]*replayCtx, numTrees)
	times := make([]int64, len(rp.Plans))

	for i := range h.Entries {
		e := &h.Entries[i]
		if e.Idx >= numTrees {
			return nil, fmt.Errorf("sim: trace tree index %d out of range (program has %d trees)", e.Idx, numTrees)
		}
		c := ctxes[e.Idx]
		if c == nil {
			c, err = rp.ctx(trees[e.Idx], planTabs)
			if err != nil {
				return nil, err
			}
			ctxes[e.Idx] = c
		}
		if e.Exit >= len(c.exits) {
			return nil, fmt.Errorf("sim: trace exit %d out of range for tree %s", e.Exit, trees[e.Idx].Name)
		}
		if len(e.Bits) != c.bitBytes() {
			return nil, fmt.Errorf("sim: trace commit bits are %d bytes, tree %s has %d guarded ops — trace does not match program",
				len(e.Bits), trees[e.Idx].Name, len(c.guarded))
		}
		if n := len(c.guarded) & 7; n != 0 && e.Bits[len(e.Bits)-1]>>uint(n) != 0 {
			return nil, fmt.Errorf("sim: trace commit bits for tree %s set beyond its %d guarded ops", trees[e.Idx].Name, len(c.guarded))
		}
		// Histogram entries are distinct patterns, so each is priced exactly
		// once — no memo needed.
		c.price(e.Bits, e.Exit, e.Count, times)
	}
	return &Result{Times: times, Ops: tr.Ops, Committed: tr.Committed}, nil
}

// ctx builds the pricing context for one tree: its plans' completion tables
// and, per plan and exit, the maximum completion over the unguarded on-path
// ops, which commit on every execution.
func (rp *Replayer) ctx(t *ir.Tree, planTabs [][]planEntry) (*replayCtx, error) {
	var shape *treeShape
	if rp.Shapes != nil {
		shape = rp.Shapes.of(t)
	} else {
		shape = shapeOf(t)
	}
	c := &replayCtx{treeShape: shape}
	for pi, p := range rp.Plans {
		ent := planTabs[pi][t.PIdx]
		if ent.tree != t || ent.comp == nil {
			return nil, fmt.Errorf("sim: plan %q has no schedule for tree %s: %w",
				p.Name, t.Name, resilience.ErrMissingSchedule)
		}
		b := make([]int64, len(shape.exits))
		for e := range shape.exits {
			for i, op := range t.Ops {
				if op.Guard == ir.NoReg && shape.onPath[i][e] && ent.comp[i] > b[e] {
					b[e] = ent.comp[i]
				}
			}
		}
		c.comp = append(c.comp, ent.comp)
		c.base = append(c.base, b)
	}
	return c, nil
}

// price adds count executions of one commit pattern to times, per plan: the
// maximum completion cycle over the committed on-path ops, floored by the
// exit's base over the always-committing ops. Bit k of bits is the k-th
// guarded op in Seq order, as every engine records it.
func (c *replayCtx) price(bits []byte, exitIdx int, count int64, times []int64) {
	for pi, comp := range c.comp {
		max := c.base[pi][exitIdx]
		for k, i := range c.guarded {
			if bits[k>>3]&(1<<uint(k&7)) != 0 && c.onPath[i][exitIdx] && comp[i] > max {
				max = comp[i]
			}
		}
		times[pi] += max * count
	}
}
