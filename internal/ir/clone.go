package ir

import "slices"

// cloneInto deep-copies the tree's ops (including argument slices and memory
// references), arcs (remapped to the cloned ops), and blocks into a new tree
// owned by fn. The caller decides how fn relates to the original function.
func (t *Tree) cloneInto(fn *Function) *Tree {
	c := &Tree{
		ID:     t.ID,
		Fn:     fn,
		Name:   t.Name,
		PIdx:   t.PIdx,
		Blocks: append([]Block(nil), t.Blocks...),
		nextID: t.nextID,
	}
	ops := make([]Op, len(t.Ops))
	c.Ops = make([]*Op, len(t.Ops))
	for i, op := range t.Ops {
		n := &ops[i]
		*n = *op
		n.Args = append([]Reg(nil), op.Args...)
		n.CallArg = append([]Reg(nil), op.CallArg...)
		if op.Ref != nil {
			ref := *op.Ref
			n.Ref = &ref
		}
		c.Ops[i] = n
	}
	// An arc endpoint is found by its Seq, its index in a well-formed tree,
	// or else by a scan; one outside the tree maps to nil.
	clonedOf := func(o *Op) *Op {
		i := o.Seq
		if i < 0 || i >= len(t.Ops) || t.Ops[i] != o {
			if i = slices.Index(t.Ops, o); i < 0 {
				return nil
			}
		}
		return c.Ops[i]
	}
	arcs := make([]MemArc, len(t.Arcs))
	c.Arcs = make([]*MemArc, len(t.Arcs))
	for i, a := range t.Arcs {
		arcs[i] = *a
		arcs[i].From, arcs[i].To = clonedOf(a.From), clonedOf(a.To)
		c.Arcs[i] = &arcs[i]
	}
	return c
}

// Clone deep-copies the tree: ops (including argument slices and memory
// references), arcs (remapped to the cloned ops), and blocks. The clone gets
// a private shallow copy of the parent Function (own register counter, own
// stable-register set, and a Trees slice in which the clone replaces the
// original), so transformations applied to the clone never disturb the
// original tree or the function's bookkeeping. Intended for tentative
// ("what if") transformation during heuristic search.
func (t *Tree) Clone() *Tree {
	fnCopy := *t.Fn
	fnCopy.Trees = append([]*Tree(nil), t.Fn.Trees...)
	fnCopy.stableRegs = make(map[Reg]bool, len(t.Fn.stableRegs))
	for r := range t.Fn.stableRegs {
		fnCopy.stableRegs[r] = true
	}
	c := t.cloneInto(&fnCopy)
	if t.ID >= 0 && t.ID < len(fnCopy.Trees) {
		fnCopy.Trees[t.ID] = c
	}
	return c
}

// Clone deep-copies the whole program: every function (with its trees, ops,
// arcs, and stable-register set) and every global's init image. The clone is
// structurally identical — same op IDs, Seq positions, tree IDs, and PIdx
// assignments — so pipelines that mutate a program in place (arc resolution,
// SpD) can each start from a private copy of one compilation instead of
// recompiling the source.
func (p *Program) Clone() *Program {
	np := &Program{
		Funcs:   make(map[string]*Function, len(p.Funcs)),
		Order:   append([]string(nil), p.Order...),
		MemSize: p.MemSize,
		Main:    p.Main,
	}
	np.Globals = make([]*GlobalArray, len(p.Globals))
	for i, g := range p.Globals {
		ng := *g
		ng.Init = append([]Value(nil), g.Init...)
		np.Globals[i] = &ng
	}
	for _, name := range p.SortedFuncNames() {
		fn := p.Funcs[name]
		nf := *fn
		nf.Params = append([]Reg(nil), fn.Params...)
		if fn.stableRegs != nil {
			nf.stableRegs = make(map[Reg]bool, len(fn.stableRegs))
			for r := range fn.stableRegs {
				nf.stableRegs[r] = true
			}
		}
		nf.Trees = make([]*Tree, len(fn.Trees))
		for i, t := range fn.Trees {
			nf.Trees[i] = t.cloneInto(&nf)
		}
		np.Funcs[name] = &nf
	}
	return np
}
