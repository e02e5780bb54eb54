package ir

import (
	"fmt"
	"sort"
	"strings"
)

// DepKind classifies a memory-dependence arc.
type DepKind uint8

// Memory dependence kinds, named from the second reference's perspective.
const (
	DepRAW DepKind = iota // store → load
	DepWAR                // load → store
	DepWAW                // store → store
)

func (k DepKind) String() string {
	switch k {
	case DepRAW:
		return "RAW"
	case DepWAR:
		return "WAR"
	case DepWAW:
		return "WAW"
	}
	return fmt.Sprintf("depkind(%d)", int(k))
}

// MemArc is a memory-dependence arc between two memory operations of the same
// tree, From preceding To in sequential order. Ambiguous arcs exist because
// of the *possibility* of dependence; definite arcs are proven to alias.
type MemArc struct {
	From, To  *Op
	Kind      DepKind
	Ambiguous bool

	// Profile counters, filled by a profiling run on the untransformed
	// program: how often both endpoints committed together, and how often
	// their addresses matched when they did.
	ExecCount  int64
	AliasCount int64
}

// AliasProb returns the measured alias probability, or the supplied default
// when the arc was never profiled.
func (a *MemArc) AliasProb(dflt float64) float64 {
	if a.ExecCount == 0 {
		return dflt
	}
	return float64(a.AliasCount) / float64(a.ExecCount)
}

func (a *MemArc) String() string {
	amb := "def"
	if a.Ambiguous {
		amb = "amb"
	}
	return fmt.Sprintf("%s(%s) %%%d -> %%%d", a.Kind, amb, a.From.ID, a.To.ID)
}

// Tree is a decision tree: the unit of scheduling and guarded execution.
// Ops appear in sequential (Seq) order. At least one exit is present; every
// exit carries its full path condition as its guard, and exactly one exit's
// guard evaluates true on each execution (an unguarded exit is therefore
// only legal as a tree's sole exit).
type Tree struct {
	ID   int
	Fn   *Function
	Name string // diagnostic label, e.g. "f.loop1.body"

	// PIdx is the tree's program-wide index, assigned by Program.IndexTrees
	// (which the compiler calls, so clones inherit it). Simulators, pricing
	// plans and profiles use it for dense per-tree tables instead of
	// pointer-keyed maps.
	PIdx int

	Ops    []*Op
	Arcs   []*MemArc
	Blocks []Block
	nextID int
}

// NewOp allocates an op with a fresh ID, appends it, and returns it. Seq is
// set to the end of the current order.
func (t *Tree) NewOp(kind OpKind, args []Reg, dest Reg) *Op {
	op := &Op{Kind: kind, Args: args, Dest: dest, Guard: NoReg}
	return t.Append(op)
}

// Append adopts an externally built op: it assigns a fresh ID and the next
// Seq position and appends it to the tree.
func (t *Tree) Append(op *Op) *Op {
	op.ID = t.nextID
	t.nextID++
	op.Seq = len(t.Ops)
	t.Ops = append(t.Ops, op)
	return op
}

// AllocID hands out a fresh op ID without placing the op; transformation
// passes that splice ops into the middle of a tree use it and then rebuild
// the op list with Renumber.
func (t *Tree) AllocID() int {
	id := t.nextID
	t.nextID++
	return id
}

// IDBound returns the exclusive upper bound of the op IDs handed out so far.
// Every op legitimately belonging to the tree has ID < IDBound(); an op at or
// above it was allocated elsewhere (a clone or another tree) and grafted in
// without Append/AllocID — the verifier uses this to catch foreign ops.
func (t *Tree) IDBound() int { return t.nextID }

// InsertOp allocates an op with a fresh ID and splices it immediately before
// the op at sequential position seq, renumbering Seq fields.
func (t *Tree) InsertOp(kind OpKind, args []Reg, dest Reg, seq int) *Op {
	op := &Op{ID: t.nextID, Kind: kind, Args: args, Dest: dest, Guard: NoReg}
	t.nextID++
	t.Ops = append(t.Ops, nil)
	copy(t.Ops[seq+1:], t.Ops[seq:])
	t.Ops[seq] = op
	t.Renumber()
	return op
}

// Renumber reassigns Seq fields to match the current slice order.
func (t *Tree) Renumber() {
	for i, op := range t.Ops {
		op.Seq = i
	}
}

// Exits returns the tree's exit ops in sequential order.
func (t *Tree) Exits() []*Op {
	var out []*Op
	for _, op := range t.Ops {
		if op.Kind == OpExit {
			out = append(out, op)
		}
	}
	return out
}

// MemOps returns the loads and stores in sequential order.
func (t *Tree) MemOps() []*Op {
	var out []*Op
	for _, op := range t.Ops {
		if op.Kind.IsMem() {
			out = append(out, op)
		}
	}
	return out
}

// OpByID finds the op with the given ID, or nil.
func (t *Tree) OpByID(id int) *Op {
	for _, op := range t.Ops {
		if op.ID == id {
			return op
		}
	}
	return nil
}

// RemoveArc deletes the given arc from the tree (identity comparison).
func (t *Tree) RemoveArc(a *MemArc) {
	for i, x := range t.Arcs {
		if x == a {
			t.Arcs = append(t.Arcs[:i], t.Arcs[i+1:]...)
			return
		}
	}
}

// AmbiguousArcs returns the arcs still marked ambiguous.
func (t *Tree) AmbiguousArcs() []*MemArc {
	var out []*MemArc
	for _, a := range t.Arcs {
		if a.Ambiguous {
			out = append(out, a)
		}
	}
	return out
}

// Size returns the tree size in operations (the paper's TreeSize).
func (t *Tree) Size() int { return len(t.Ops) }

// String dumps the tree for debugging.
func (t *Tree) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tree T%d %s:\n", t.ID, t.Name)
	for _, op := range t.Ops {
		fmt.Fprintf(&b, "  %s\n", op)
	}
	for _, a := range t.Arcs {
		fmt.Fprintf(&b, "  arc %s\n", a)
	}
	return b.String()
}

// BuildMemArcs constructs the conservative ("NAIVE") memory-dependence arcs:
// one arc for every ordered pair of memory references in which at least one
// is a store. All arcs start out ambiguous; disambiguators then remove or
// reclassify them. Existing arcs are discarded.
func (t *Tree) BuildMemArcs() {
	t.Arcs = nil
	mem := t.MemOps()
	for i := 0; i < len(mem); i++ {
		for j := i + 1; j < len(mem); j++ {
			a, b := mem[i], mem[j]
			var kind DepKind
			switch {
			case a.Kind == OpStore && b.Kind == OpLoad:
				kind = DepRAW
			case a.Kind == OpLoad && b.Kind == OpStore:
				kind = DepWAR
			case a.Kind == OpStore && b.Kind == OpStore:
				kind = DepWAW
			default:
				continue // load/load pairs never conflict
			}
			t.Arcs = append(t.Arcs, &MemArc{From: a, To: b, Kind: kind, Ambiguous: true})
		}
	}
}

// Validate checks structural invariants and returns the first violation.
func (t *Tree) Validate() error {
	if len(t.Ops) == 0 {
		return fmt.Errorf("tree T%d: empty", t.ID)
	}
	seen := map[int]bool{}
	var exits []*Op
	for i, op := range t.Ops {
		if op.Seq != i {
			return fmt.Errorf("tree T%d: op %%%d has Seq %d at index %d", t.ID, op.ID, op.Seq, i)
		}
		if seen[op.ID] {
			return fmt.Errorf("tree T%d: duplicate op ID %d", t.ID, op.ID)
		}
		seen[op.ID] = true
		if op.Kind == OpExit {
			exits = append(exits, op)
		}
		for _, a := range op.Args {
			if a == NoReg {
				return fmt.Errorf("tree T%d: op %%%d has NoReg arg", t.ID, op.ID)
			}
		}
	}
	if len(exits) == 0 {
		return fmt.Errorf("tree T%d: no exits", t.ID)
	}
	for _, a := range t.Arcs {
		if a.From.Seq >= a.To.Seq {
			return fmt.Errorf("tree T%d: arc %s not in Seq order", t.ID, a)
		}
		if !a.From.Kind.IsMem() || !a.To.Kind.IsMem() {
			return fmt.Errorf("tree T%d: arc %s endpoint not a memory op", t.ID, a)
		}
	}
	return nil
}

// GlobalArray is a statically allocated array in the program's flat memory.
type GlobalArray struct {
	Name string
	Base int64 // first word address
	Size int64 // number of words
	Init []Value
}

// Function is a compiled function: parameters arrive in Params' registers and
// execution starts at tree Entry.
type Function struct {
	Name    string
	Params  []Reg
	NumRegs int
	Trees   []*Tree
	Entry   int

	// IsFloatRet records the return type for printing/diagnostics.
	IsFloatRet bool

	// stableRegs are registers whose committed value is correct under every
	// alias outcome because a speculative-disambiguation merge guards their
	// writers exhaustively. Later transformations must not treat values
	// flowing through them as speculative.
	stableRegs map[Reg]bool
}

// MarkStable records that reg is merge-protected.
func (f *Function) MarkStable(r Reg) {
	if f.stableRegs == nil {
		f.stableRegs = map[Reg]bool{}
	}
	f.stableRegs[r] = true
}

// Stable reports whether reg is merge-protected.
func (f *Function) Stable(r Reg) bool { return f.stableRegs[r] }

// NewReg allocates a fresh virtual register.
func (f *Function) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// Tree returns the tree with the given ID (tree IDs are slice indices).
func (f *Function) Tree(id int) *Tree { return f.Trees[id] }

// Program is a whole compiled program: functions plus the static memory
// image. Memory is a flat array of words; globals occupy [0, MemSize).
type Program struct {
	Funcs   map[string]*Function
	Order   []string // function order for deterministic iteration
	Globals []*GlobalArray
	MemSize int64
	Main    string
}

// Global looks up a global array by name.
func (p *Program) Global(name string) *GlobalArray {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// Validate checks the whole program.
func (p *Program) Validate() error {
	if _, ok := p.Funcs[p.Main]; !ok {
		return fmt.Errorf("program: main function %q missing", p.Main)
	}
	for _, name := range p.Order {
		f := p.Funcs[name]
		if f.Entry < 0 || f.Entry >= len(f.Trees) {
			return fmt.Errorf("func %s: bad entry tree %d", name, f.Entry)
		}
		for _, t := range f.Trees {
			if err := t.Validate(); err != nil {
				return fmt.Errorf("func %s: %w", name, err)
			}
			for _, op := range t.Ops {
				if op.Kind == OpExit {
					switch op.Exit {
					case ExitGoto, ExitCall:
						if op.Target < 0 || op.Target >= len(f.Trees) {
							return fmt.Errorf("func %s tree T%d: exit %%%d targets missing tree %d", name, t.ID, op.ID, op.Target)
						}
					}
					if op.Exit == ExitCall {
						if _, ok := p.Funcs[op.Callee]; !ok {
							return fmt.Errorf("func %s tree T%d: call to missing %q", name, t.ID, op.Callee)
						}
					}
				}
			}
		}
	}
	return nil
}

// IndexTrees assigns every tree a dense program-wide index (Tree.PIdx) in
// deterministic Order/Trees iteration order and returns the tree count.
// Idempotent; call again after any pass that adds or removes trees.
func (p *Program) IndexTrees() int {
	n := 0
	for _, name := range p.Order {
		for _, t := range p.Funcs[name].Trees {
			t.PIdx = n
			n++
		}
	}
	return n
}

// OpCount returns the total static operation count of the program, the
// paper's code-size measure (operations, not VLIW instructions).
func (p *Program) OpCount() int {
	n := 0
	for _, name := range p.Order {
		for _, t := range p.Funcs[name].Trees {
			n += len(t.Ops)
		}
	}
	return n
}

// SortedFuncNames returns the function names sorted, for deterministic dumps.
func (p *Program) SortedFuncNames() []string {
	names := make([]string, 0, len(p.Funcs))
	for n := range p.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
