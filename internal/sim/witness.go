package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"specdis/internal/ir"
)

// KeyLog is what a profiling run (Runner.Keys) keeps so that the traces of
// speculatively disambiguated versions of its program can be derived
// instead of interpreted. SpD only adds an address compare and copies
// guarded by its outcome (paper §4), so an execution of a transformed tree
// should follow from the original execution's pattern — taken exit and
// commit bits — plus the alias outcomes of the tree's arcs. The run keys
// each execution of a tree with arcs by exactly that, and keeps for every
// new key a witness: the entry state one execution with that key started
// from. Running a transformed tree once per key on its witness then prices
// every execution with the key.
type KeyLog struct {
	// Trees, when non-nil, limits keying to the trees (by PIdx) it marks:
	// those a transform may change. A tree without arcs is never keyed.
	Trees []bool
	// Keys lists the keys in first-appearance order.
	Keys []Key
}

// keys reports whether the log keys tree t's executions.
func (l *KeyLog) keys(t *ir.Tree) bool {
	return l != nil && len(t.Arcs) > 0 && (l.Trees == nil || t.PIdx < len(l.Trees) && l.Trees[t.PIdx])
}

// Key is one distinct (tree, taken exit, commit bits, alias bits)
// execution key of a profiling run.
type Key struct {
	// PIdx is the tree; Exit the taken exit's index and Bits the packed
	// commit bits, as the run's trace records them.
	PIdx, Exit int
	Bits       []byte
	// Pos is the number of patterns the run's trace had recorded when the
	// key first appeared (its own included), which places the key in the
	// trace's first-appearance order.
	Pos int
	// Count is the number of executions with this key.
	Count   int64
	Witness Witness
}

// Witness is the entry state of one tree execution: the registers the tree
// may read before writing them, and every memory word its memory ops
// addressed (squashed ones included) with the value it held on entry.
// Addresses are clamped into the memory image.
type Witness struct {
	Regs  []ir.Reg
	Vals  []ir.Value
	Addrs []int64
	Mem   []ir.Value
}

// keyedTree is one tree's key-collection state (see treeCtx.keyed).
type keyedTree struct {
	pidx   int
	entry  []ir.Reg   // the registers the tree may read before writing them
	vals   []ir.Value // their values before the current execution
	memOps []int      // Seq of every memory op
	stores []bool     // by Seq: the op is a store
	olds   []ir.Value // by Seq: the word a committed store overwrote
	alias  []byte     // the current execution's alias bits
	key    []byte     // scratch: the current execution's key
	keyOf  map[string]int
	// last is the Keys index of the tree's previous key (-1: none yet), and
	// lastExit, lastBits and lastAlias that key's parts.
	last                int
	lastExit            int
	lastBits, lastAlias []byte
}

func newKeyedTree(t *ir.Tree) *keyedTree {
	k := &keyedTree{
		pidx:   t.PIdx,
		entry:  entryRegs(t),
		stores: make([]bool, len(t.Ops)),
		olds:   make([]ir.Value, len(t.Ops)),
		alias:  make([]byte, (len(t.Arcs)+7)/8),
		keyOf:  map[string]int{},
		last:   -1,
	}
	k.vals = make([]ir.Value, len(k.entry))
	for _, op := range t.Ops {
		if op.Kind == ir.OpLoad || op.Kind == ir.OpStore {
			k.memOps = append(k.memOps, op.Seq)
			k.stores[op.Seq] = op.Kind == ir.OpStore
		}
	}
	return k
}

// entryRegs returns the registers tree t may read before writing them, in
// first-read order: every register an op reads (operands, call arguments,
// guards) before an unguarded op of the tree defines it. A guarded
// definition may not commit, so it hides nothing.
func entryRegs(t *ir.Tree) []ir.Reg {
	defined := map[ir.Reg]bool{}
	seen := map[ir.Reg]bool{}
	var regs []ir.Reg
	read := func(r ir.Reg) {
		if r != ir.NoReg && !defined[r] && !seen[r] {
			seen[r] = true
			regs = append(regs, r)
		}
	}
	for _, op := range t.Ops {
		for _, a := range op.Args {
			read(a)
		}
		for _, a := range op.CallArg {
			read(a)
		}
		read(op.Guard)
		if op.Guard == ir.NoReg && op.Dest != ir.NoReg && op.Kind != ir.OpExit {
			defined[op.Dest] = true
		}
	}
	return regs
}

// olds returns the tree's store-undo table for the compiled executors: set
// only while keys are collected.
func (c *treeCtx) olds() []ir.Value {
	if c.keyed == nil {
		return nil
	}
	return c.keyed.olds
}

// snapshot saves the tree's entry registers before it executes, for the
// witness of a key the execution may turn out to have. Each executor calls
// it just before running the tree, so it runs once per execution whichever
// tier the tree falls back to.
func (k *keyedTree) snapshot(regs []ir.Value) {
	for i, reg := range k.entry {
		k.vals[i] = regs[reg]
	}
}

// noteKey counts one execution of a keyed tree under its key — taken exit,
// commit bits and the alias bits profileExec just set — keeping a witness
// when the key is new.
func (r *Runner) noteKey(c *treeCtx, exitIdx int, bits []byte) {
	k := c.keyed
	// A loop tree usually repeats its previous key.
	if k.last >= 0 && exitIdx == k.lastExit && bytes.Equal(bits, k.lastBits) && bytes.Equal(k.alias, k.lastAlias) {
		r.Keys.Keys[k.last].Count++
		return
	}
	key := binary.AppendUvarint(k.key[:0], uint64(exitIdx))
	key = append(key, bits...)
	key = append(key, k.alias...)
	k.key = key
	i, ok := k.keyOf[string(key)]
	if !ok {
		i = len(r.Keys.Keys)
		k.keyOf[string(key)] = i
		r.Keys.Keys = append(r.Keys.Keys, Key{
			PIdx:    k.pidx,
			Exit:    exitIdx,
			Bits:    append([]byte(nil), bits...),
			Pos:     r.Rec.Patterns(),
			Witness: r.witness(k),
		})
	}
	r.Keys.Keys[i].Count++
	k.last, k.lastExit = i, exitIdx
	k.lastBits = append(k.lastBits[:0], bits...)
	k.lastAlias = append(k.lastAlias[:0], k.alias...)
}

// witness assembles the entry state of the execution that just ended: the
// snapshotted entry registers, and for every word a memory op addressed the
// value it held before the tree ran — what the first committed store to it
// overwrote, or else what it holds now.
func (r *Runner) witness(k *keyedTree) Witness {
	c := r.ctxes[k.pidx]
	w := Witness{Regs: k.entry, Vals: append([]ir.Value(nil), k.vals...)}
	for _, seq := range k.memOps {
		a := clampTo(c.addrs[seq], r.memHi)
		if slices.Contains(w.Addrs, a) {
			continue
		}
		v := r.mem[a]
		for _, s := range k.memOps {
			if k.stores[s] && c.committed[s] && clampTo(c.addrs[s], r.memHi) == a {
				v = k.olds[s]
				break
			}
		}
		w.Addrs = append(w.Addrs, a)
		w.Mem = append(w.Mem, v)
	}
	return w
}

// decided reports whether pure op's result is known: all its operands
// are, or a known operand alone fixes a guard combination — a false
// conjunct, or a true negated one. Guards SpD combines from a compare and
// a condition computed only on the compare's other outcome (a chained
// application's stale address) are decided this way.
func decided(op *ir.Op, regs []ir.Value, known []bool) bool {
	all := true
	for _, a := range op.Args {
		all = all && known[a]
	}
	if all || len(op.Args) != 2 {
		return all
	}
	x, y := op.Args[0], op.Args[1]
	switch op.Kind {
	case ir.OpBAnd:
		return known[x] && regs[x].I == 0 || known[y] && regs[y].I == 0
	case ir.OpBAndNot:
		return known[x] && regs[x].I == 0 || known[y] && regs[y].I != 0
	}
	return false
}

// ErrOutsideWitness marks a witness run whose outcome depends on state the
// witness does not hold: a guard, a committed store's address or a printed
// value computed from a register or memory word it did not record.
var ErrOutsideWitness = errors.New("sim: execution depends on state outside the witness")

// TreeRun is the outcome of one tree execution on a witness (RunWitness).
type TreeRun struct {
	// Exit is the Seq of the taken exit, and Bits the packed commit bits of
	// the tree's guarded ops in Seq order, as a trace records them.
	Exit int
	Bits []byte
	// Regs is the final register frame. Known[r] reports that Regs[r] was
	// computed from witness state alone, and Wrote[r] that the tree wrote it.
	Regs  []ir.Value
	Known []bool
	Wrote []bool
	// Mem holds the final value of every word the witness recorded or the
	// tree stored to.
	Mem map[int64]Word
	// Output is what the tree's committed prints wrote.
	Output string
}

// Word is one memory word of a witness run; Known as in TreeRun.Known.
type Word struct {
	Val   ir.Value
	Known bool
}

// Same reports whether two words are known and bit-identical (so NaN
// equals itself).
func (w Word) Same(o Word) bool {
	return w.Known && o.Known && SameValue(w.Val, o.Val)
}

// SameValue reports whether two values are bit-identical.
func SameValue(a, b ir.Value) bool {
	return a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// RunWitness executes tree t once, with the Runner's semantics, on the
// entry state w: a frame of numRegs registers holding w's registers and a
// memory of memSize words holding w's. Every other register and word is
// unknown; a value computed from an unknown one is unknown too. An unknown
// guard, committed store address or committed printed value makes the
// outcome depend on state w does not hold: the run stops with an error
// wrapping ErrOutsideWitness. Two taken exits, or none, are errors as in
// Runner.Run.
func RunWitness(t *ir.Tree, w *Witness, numRegs int, memSize int64) (*TreeRun, error) {
	run := &TreeRun{
		Exit:  -1,
		Regs:  make([]ir.Value, numRegs),
		Known: make([]bool, numRegs),
		Wrote: make([]bool, numRegs),
		Mem:   make(map[int64]Word, len(w.Addrs)),
	}
	regs, known := run.Regs, run.Known
	write := func(r ir.Reg, v ir.Value, k bool) {
		regs[r], known[r], run.Wrote[r] = v, k, true
	}
	for i, r := range w.Regs {
		if int(r) >= numRegs {
			return nil, fmt.Errorf("sim: witness register r%d outside a %d-register frame", r, numRegs)
		}
		regs[r], known[r] = w.Vals[i], true
	}
	for i, a := range w.Addrs {
		run.Mem[a] = Word{w.Mem[i], true}
	}
	hi := memSize - 1
	nguarded := 0
	for _, op := range t.Ops {
		if op.Guard != ir.NoReg {
			nguarded++
		}
	}
	run.Bits = make([]byte, (nguarded+7)/8)
	var out bytes.Buffer
	k := 0
	for _, op := range t.Ops {
		ok := true
		if op.Guard != ir.NoReg {
			if !known[op.Guard] {
				return nil, fmt.Errorf("%w: guard of op %%%d in tree %s", ErrOutsideWitness, op.ID, t.Name)
			}
			ok = (regs[op.Guard].I != 0) != op.GuardNeg
			if ok {
				setBit(run.Bits, k)
			}
			k++
		}
		if !ok {
			continue // squashed: no architectural effect
		}
		switch op.Kind {
		case ir.OpLoad:
			wd := Word{}
			if a := op.Args[0]; known[a] {
				wd = run.Mem[clampTo(regs[a].I, hi)]
			}
			write(op.Dest, wd.Val, wd.Known)
		case ir.OpStore:
			a, v := op.Args[0], op.Args[1]
			if !known[a] {
				return nil, fmt.Errorf("%w: address of store %%%d in tree %s", ErrOutsideWitness, op.ID, t.Name)
			}
			run.Mem[clampTo(regs[a].I, hi)] = Word{regs[v], known[v]}
		case ir.OpPrint:
			if !known[op.Args[0]] {
				return nil, fmt.Errorf("%w: value of print %%%d in tree %s", ErrOutsideWitness, op.ID, t.Name)
			}
			writeVal(&out, regs[op.Args[0]], op.PrintFloat)
		case ir.OpExit:
			if run.Exit >= 0 {
				return nil, fmt.Errorf("tree %s: two exits taken (%%%d and %%%d)", t.Name, t.Ops[run.Exit].ID, op.ID)
			}
			run.Exit = op.Seq
		default:
			if op.Dest == ir.NoReg {
				continue
			}
			write(op.Dest, evalPure(op, regs), decided(op, regs, known))
		}
	}
	if run.Exit < 0 {
		return nil, fmt.Errorf("tree %s: no exit taken", t.Name)
	}
	run.Output = out.String()
	return run, nil
}
