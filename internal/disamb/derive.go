package disamb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"specdis/internal/ir"
	"specdis/internal/sim"
	"specdis/internal/trace"
)

// ErrNotDerived wraps every reason Derive declines to build a trace; the
// caller then captures it instead (Capture), which reports any real fault
// of the program exactly as before.
var ErrNotDerived = errors.New("disamb: trace not derivable")

// ErrWitnessCheck is the reason Derive gives when, on some witness, the
// transformed tree leaves a live register, a memory word, the output or the
// taken exit different from the original tree's: a speculative
// disambiguation that changes what the program computes.
var ErrWitnessCheck = fmt.Errorf("%w: a transformed tree's effect differs from the original's", ErrNotDerived)

// Derive returns the trace a Capture of p would record — byte for byte,
// with the same totals — without interpreting p. run is the ProfileRun of
// the program p was prepared from (PrepareFrom). Trees p's transforms left
// executing as before (equal ir.AppendExecKey) keep the run's patterns.
// Every other tree runs once per execution key of the run (sim.KeyLog) on
// that key's witness, and the outcome stands for every execution with the
// key: SpD commits each copy as its address compare decides (§4), so the
// original pattern plus the alias outcomes fix the transformed one. Ops and
// Committed follow from the counts.
//
// The whole-program output check a capture performs is replaced by a
// per-witness one: the original tree, run on the same witness, must
// reproduce the recorded pattern and leave every live register, memory
// word, printed value and exit argument equal to the transformed tree's
// (ErrWitnessCheck). Derive declines with an error wrapping ErrNotDerived
// whenever exactness or a budget is in doubt: a key whose outcome depends
// on state its witness does not hold, a failed check, derived Ops above
// p's fuel, or p's context done.
func Derive(p *Prepared, run *Profiled) (*trace.Trace, error) {
	if run == nil || run.Keys == nil || run.Prog == nil {
		return nil, fmt.Errorf("%w: no profiling run with execution keys", ErrNotDerived)
	}
	if p.Ctx != nil && p.Ctx.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotDerived, p.Ctx.Err())
	}
	h, err := run.Trace.Hist()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotDerived, err)
	}
	d := &deriver{
		base:    treesByPIdx(run.Prog),
		spec:    treesByPIdx(p.Prog),
		memSize: p.Prog.MemSize,
		live:    map[*ir.Function]*liveness{},
	}
	if len(d.base) != len(d.spec) || run.Prog.MemSize != p.Prog.MemSize {
		return nil, fmt.Errorf("%w: %s program does not have the profiled program's trees", ErrNotDerived, p.Kind)
	}
	changed := make([]bool, len(d.base))
	var kb, ks []byte
	for i, bt := range d.base {
		if bt == nil || d.spec[i] == nil {
			return nil, fmt.Errorf("%w: tree index %d unassigned", ErrNotDerived, i)
		}
		kb, ks = ir.AppendExecKey(kb[:0], bt), ir.AppendExecKey(ks[:0], d.spec[i])
		changed[i] = !bytes.Equal(kb, ks)
	}

	// Run every key of a changed tree, and check that the keys account for
	// every execution of it.
	keys := run.Keys.Keys
	outcome := make([]*sim.TreeRun, len(keys))
	unkeyed := make([]int64, len(d.base))
	for i := range keys {
		k := &keys[i]
		if k.PIdx >= len(changed) {
			return nil, fmt.Errorf("%w: key of tree %d outside the program", ErrNotDerived, k.PIdx)
		}
		if !changed[k.PIdx] {
			continue
		}
		unkeyed[k.PIdx] -= k.Count
		if outcome[i], err = d.run(k); err != nil {
			return nil, err
		}
	}
	for _, e := range h.Entries {
		if changed[e.Idx] {
			unkeyed[e.Idx] += e.Count
		}
	}
	for i, n := range unkeyed {
		if n != 0 {
			return nil, fmt.Errorf("%w: tree %s has executions its keys do not cover", ErrNotDerived, d.base[i].Name)
		}
	}

	// Merge in first-appearance order: an unchanged tree's pattern first
	// appeared where the run's did, and a key first appeared after its Pos-th
	// pattern of the run.
	out := &trace.Hist{MaxFn: h.MaxFn}
	index := map[string]int{}
	var ops, committed int64
	add := func(idx, exit int, bits []byte, count int64) {
		t := d.spec[idx]
		ops += count * int64(len(t.Ops))
		committed += count * int64(len(t.Ops)-guardedOps(t)+onesCount(bits))
		key := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(idx)), uint64(exit))
		key = append(key, bits...)
		if j, ok := index[string(key)]; ok {
			out.Entries[j].Count += count
			return
		}
		index[string(key)] = len(out.Entries)
		out.Entries = append(out.Entries, trace.HistEntry{Idx: idx, Exit: exit, Bits: bits, Count: count})
	}
	next := 0
	for i, e := range h.Entries {
		if !changed[e.Idx] {
			add(e.Idx, e.Exit, e.Bits, e.Count)
		}
		for ; next < len(keys) && keys[next].Pos == i+1; next++ {
			if o := outcome[next]; o != nil {
				add(keys[next].PIdx, exitIndex(d.spec[keys[next].PIdx], o.Exit), o.Bits, keys[next].Count)
			}
		}
	}
	if next != len(keys) {
		return nil, fmt.Errorf("%w: execution keys out of order with the run's trace", ErrNotDerived)
	}
	maxOps := p.MaxOps
	if maxOps == 0 {
		maxOps = sim.DefaultMaxOps
	}
	if ops > maxOps {
		return nil, fmt.Errorf("%w: %d derived operations exceed the budget (%d)", ErrNotDerived, ops, maxOps)
	}
	return trace.FromHist(out, run.Trace.Events, run.Trace.TreeExecs, ops, committed), nil
}

// deriver holds one Derive call's program views.
type deriver struct {
	base, spec []*ir.Tree // by PIdx: the profiled and the prepared program
	memSize    int64
	live       map[*ir.Function]*liveness // by base function
}

// run executes one key of a changed tree on its witness, under the
// original and the transformed tree, and checks the two against each other.
func (d *deriver) run(k *sim.Key) (*sim.TreeRun, error) {
	bt, st := d.base[k.PIdx], d.spec[k.PIdx]
	orig, err := sim.RunWitness(bt, &k.Witness, bt.Fn.NumRegs, d.memSize)
	if err != nil {
		return nil, fmt.Errorf("%w: original tree on its witness: %w", ErrNotDerived, err)
	}
	if exitIndex(bt, orig.Exit) != k.Exit || !bytes.Equal(orig.Bits, k.Bits) {
		return nil, fmt.Errorf("%w: witness of tree %s does not reproduce its execution", ErrNotDerived, bt.Name)
	}
	spec, err := sim.RunWitness(st, &k.Witness, st.Fn.NumRegs, d.memSize)
	if err != nil {
		return nil, fmt.Errorf("%w: transformed tree on a witness: %w", ErrNotDerived, err)
	}
	if err := d.check(bt, st, orig, spec); err != nil {
		return nil, fmt.Errorf("%w: tree %s: %s", ErrWitnessCheck, bt.Name, err)
	}
	return spec, nil
}

// check compares the effects of the original tree bt and the transformed
// tree st on one witness: output, taken exit and its arguments, every memory
// word either run recorded, and every register live after the exit.
func (d *deriver) check(bt, st *ir.Tree, orig, spec *sim.TreeRun) error {
	if orig.Output != spec.Output {
		return errors.New("printed output differs")
	}
	be, se := bt.Ops[orig.Exit], st.Ops[spec.Exit]
	if be.Exit != se.Exit || be.Target != se.Target || be.Callee != se.Callee || be.Dest != se.Dest ||
		len(be.Args) != len(se.Args) || len(be.CallArg) != len(se.CallArg) {
		return fmt.Errorf("took exit %%%d instead of %%%d", se.ID, be.ID)
	}
	same := func(a, b ir.Reg) bool {
		return orig.Known[a] && spec.Known[b] && sim.SameValue(orig.Regs[a], spec.Regs[b])
	}
	for i, a := range be.Args {
		if !same(a, se.Args[i]) {
			return fmt.Errorf("exit %%%d returns a different value", se.ID)
		}
	}
	for i, a := range be.CallArg {
		if !same(a, se.CallArg[i]) {
			return fmt.Errorf("exit %%%d passes a different argument", se.ID)
		}
	}
	for a, w := range orig.Mem {
		if !w.Same(spec.Mem[a]) {
			return fmt.Errorf("memory word %d differs", a)
		}
	}
	for a := range spec.Mem {
		if _, ok := orig.Mem[a]; !ok {
			return fmt.Errorf("memory word %d differs", a)
		}
	}
	l := d.live[bt.Fn]
	if l == nil {
		l = newLiveness(bt.Fn)
		d.live[bt.Fn] = l
	}
	for _, r := range l.after(be) {
		if (orig.Wrote[r] || spec.Wrote[r]) && !same(r, r) {
			return fmt.Errorf("live register r%d differs", r)
		}
	}
	return nil
}

// treesByPIdx lists a program's trees by the program-wide index the
// compiler assigned (nil where no tree has an index). It only reads the
// program, which other cells may be cloning concurrently.
func treesByPIdx(prog *ir.Program) []*ir.Tree {
	var trees []*ir.Tree
	for _, name := range prog.Order {
		trees = append(trees, prog.Funcs[name].Trees...)
	}
	byIdx := make([]*ir.Tree, len(trees))
	for _, t := range trees {
		if t.PIdx >= 0 && t.PIdx < len(byIdx) {
			byIdx[t.PIdx] = t
		}
	}
	return byIdx
}

// exitIndex returns the index, among t's exits in Seq order, of the exit op
// at position seq: the exit number a trace records.
func exitIndex(t *ir.Tree, seq int) int {
	n := 0
	for _, op := range t.Ops[:seq] {
		if op.Kind == ir.OpExit {
			n++
		}
	}
	return n
}

// guardedOps counts t's guarded ops: the ops a trace pattern has a commit
// bit for.
func guardedOps(t *ir.Tree) int {
	n := 0
	for _, op := range t.Ops {
		if op.Guard != ir.NoReg {
			n++
		}
	}
	return n
}

func onesCount(b []byte) int {
	n := 0
	for _, x := range b {
		n += bits.OnesCount8(x)
	}
	return n
}

// liveness is the register liveness of one function's trees: which
// registers a later tree of the same invocation may read before writing
// them, after each exit.
type liveness struct {
	fn *ir.Function
	in [][]uint64 // by index in fn.Trees: the registers live on entry
}

// newLiveness solves the classic backward dataflow over fn's trees. A
// tree's uses are the registers an op reads before a definition that
// commits whenever the op's block does: an unguarded one, or one guarded by
// its own block's path condition in a block on the reader's path. Exiting
// through exit e, the same kind of definition on e's path kills.
func newLiveness(fn *ir.Function) *liveness {
	words := (fn.NumRegs + 63) / 64
	l := &liveness{fn: fn, in: make([][]uint64, len(fn.Trees))}
	kill := make([]map[int][]uint64, len(fn.Trees))
	for ti, t := range fn.Trees {
		use := make([]uint64, words)
		defs := map[ir.Reg][]*ir.Op{}
		read := func(r ir.Reg, at *ir.Op) {
			if r == ir.NoReg {
				return
			}
			for _, d := range defs[r] {
				if commitsOn(t, d, at.Block) {
					return
				}
			}
			use[r>>6] |= 1 << uint(r&63)
		}
		kill[ti] = map[int][]uint64{}
		for _, op := range t.Ops {
			for _, a := range op.Args {
				read(a, op)
			}
			for _, a := range op.CallArg {
				read(a, op)
			}
			read(op.Guard, op)
			if op.Kind == ir.OpExit {
				kill[ti][op.Seq] = make([]uint64, words)
			} else if op.Dest != ir.NoReg {
				defs[op.Dest] = append(defs[op.Dest], op)
			}
		}
		for _, op := range t.Ops {
			if op.Kind == ir.OpExit || op.Dest == ir.NoReg {
				continue
			}
			for _, e := range t.Ops {
				if e.Kind == ir.OpExit && commitsOn(t, op, e.Block) {
					kill[ti][e.Seq][op.Dest>>6] |= 1 << uint(op.Dest&63)
				}
			}
		}
		l.in[ti] = use
	}
	for changed := true; changed; {
		changed = false
		for ti, t := range fn.Trees {
			for _, e := range t.Ops {
				if e.Kind != ir.OpExit {
					continue
				}
				out, k := l.out(e), kill[ti][e.Seq]
				for w := range out {
					if v := l.in[ti][w] | out[w]&^k[w]; v != l.in[ti][w] {
						l.in[ti][w], changed = v, true
					}
				}
			}
		}
	}
	return l
}

// commitsOn reports whether definition d commits whenever the path through
// block blk executes.
func commitsOn(t *ir.Tree, d *ir.Op, blk int) bool {
	if d.Guard == ir.NoReg {
		return true
	}
	b := t.Blocks[d.Block]
	return d.Guard == b.Guard && d.GuardNeg == b.Neg && t.OnPath(d.Block, blk)
}

// out returns the registers live after exit e as a bitset: the successor
// tree's live-in registers, less a call's result register, which the
// return writes.
func (l *liveness) out(e *ir.Op) []uint64 {
	out := make([]uint64, len(l.in[0]))
	if e.Exit == ir.ExitRet {
		return out
	}
	copy(out, l.in[e.Target])
	if e.Exit == ir.ExitCall && e.Dest != ir.NoReg {
		out[e.Dest>>6] &^= 1 << uint(e.Dest&63)
	}
	return out
}

// after lists the registers live after exit e.
func (l *liveness) after(e *ir.Op) []ir.Reg {
	var regs []ir.Reg
	for w, x := range l.out(e) {
		for x != 0 {
			b := bits.TrailingZeros64(x)
			regs = append(regs, ir.Reg(w*64+b))
			x &^= 1 << uint(b)
		}
	}
	return regs
}
