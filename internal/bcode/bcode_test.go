package bcode_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"specdis/internal/bcode"
	"specdis/internal/compile"
	"specdis/internal/ir"
)

// newTree returns an empty single-block tree in a fresh function.
func newTree() *ir.Tree {
	fn := &ir.Function{Name: "f"}
	tr := &ir.Tree{Fn: fn, Name: "f.t0"}
	tr.NewBlock(-1, ir.NoReg, false)
	fn.Trees = []*ir.Tree{tr}
	return tr
}

// buildGuarded builds the shared fixture tree:
//
//	r0 = const 7
//	r1 = const 3
//	r2 = cmplt r1, r0        ; 3 < 7 -> 1
//	r3 = add r0, r1  ?r2     ; guarded, commits
//	r4 = sub r0, r1  ?!r2    ; guarded on the negation, squashed
//	store [r1] = r3  ?r2     ; guarded, commits
//	exit
func buildGuarded(t *testing.T) *ir.Tree {
	t.Helper()
	tr := newTree()
	fn := tr.Fn
	r0, r1, r2, r3, r4 := fn.NewReg(), fn.NewReg(), fn.NewReg(), fn.NewReg(), fn.NewReg()
	c0 := tr.NewOp(ir.OpConst, nil, r0)
	c0.Imm = ir.Value{I: 7, F: 7}
	c1 := tr.NewOp(ir.OpConst, nil, r1)
	c1.Imm = ir.Value{I: 3, F: 3}
	tr.NewOp(ir.OpCmpLT, []ir.Reg{r1, r0}, r2)
	add := tr.NewOp(ir.OpAdd, []ir.Reg{r0, r1}, r3)
	add.Guard = r2
	sub := tr.NewOp(ir.OpSub, []ir.Reg{r0, r1}, r4)
	sub.Guard, sub.GuardNeg = r2, true
	st := tr.NewOp(ir.OpStore, []ir.Reg{r1, r3}, ir.NoReg)
	st.Guard = r2
	ex := tr.NewOp(ir.OpExit, nil, ir.NoReg)
	ex.Exit = ir.ExitRet
	return tr
}

func TestCompileEncoding(t *testing.T) {
	tr := buildGuarded(t)
	p, err := bcode.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != len(tr.Ops) {
		t.Fatalf("compiled %d instrs for %d ops", len(p.Code), len(tr.Ops))
	}
	// Instruction index must equal the source op's Seq: profiling tables and
	// completion-cycle plans are indexed by Seq and applied unchanged.
	for i, op := range tr.Ops {
		if op.Seq != i {
			t.Fatalf("fixture op %d has Seq %d", i, op.Seq)
		}
	}
	if p.Code[0].Op != bcode.Const || p.Code[1].Op != bcode.Const {
		t.Errorf("ops 0-1: got %v, %v, want const, const", p.Code[0].Op, p.Code[1].Op)
	}
	if n := len(p.Consts); n != 2 {
		t.Errorf("constant pool has %d entries, want 2", n)
	}
	if v := p.Consts[p.Code[0].A]; v.I != 7 {
		t.Errorf("const 0 pools %d, want 7", v.I)
	}
	// Guarded instructions get consecutive commit-bit slots in Seq order.
	add, sub, st := &p.Code[3], &p.Code[4], &p.Code[5]
	if add.Guard != 2 || add.GNeg || add.GIdx != 0 {
		t.Errorf("add guard encoding: %+v", *add)
	}
	if sub.Guard != 2 || !sub.GNeg || sub.GIdx != 1 {
		t.Errorf("sub guard encoding: %+v", *sub)
	}
	if st.Guard != 2 || st.GNeg || st.GIdx != 2 {
		t.Errorf("store guard encoding: %+v", *st)
	}
	if p.NumGuarded != 3 {
		t.Errorf("NumGuarded = %d, want 3", p.NumGuarded)
	}
	if ex := &p.Code[6]; ex.Op != bcode.Exit || ex.Guard != -1 {
		t.Errorf("exit encoding: %+v", *ex)
	}
}

func TestCompileDiscardedDest(t *testing.T) {
	tr := newTree()
	fn := tr.Fn
	r0 := fn.NewReg()
	c := tr.NewOp(ir.OpConst, nil, ir.NoReg) // result discarded
	c.Imm = ir.Value{I: 1, F: 1}
	tr.NewOp(ir.OpAdd, []ir.Reg{r0, r0}, ir.NoReg) // pure, discarded
	tr.NewOp(ir.OpExit, nil, ir.NoReg)
	p, err := bcode.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Discarded pure results lower to Nop: no observable effect besides the
	// (absent) guard bit.
	if p.Code[0].Op != bcode.Nop || p.Code[1].Op != bcode.Nop {
		t.Errorf("discarded-dest ops lower to %v, %v, want nop, nop", p.Code[0].Op, p.Code[1].Op)
	}
}

func TestCompileRejects(t *testing.T) {
	cases := []struct {
		name  string
		build func(tr *ir.Tree)
	}{
		{"add with one operand", func(tr *ir.Tree) {
			tr.NewOp(ir.OpAdd, []ir.Reg{tr.Fn.NewReg()}, tr.Fn.NewReg())
		}},
		{"load without destination", func(tr *ir.Tree) {
			tr.NewOp(ir.OpLoad, []ir.Reg{tr.Fn.NewReg()}, ir.NoReg)
		}},
		{"store without value operand", func(tr *ir.Tree) {
			tr.NewOp(ir.OpStore, []ir.Reg{tr.Fn.NewReg()}, ir.NoReg)
		}},
		{"print without operand", func(tr *ir.Tree) {
			tr.NewOp(ir.OpPrint, nil, ir.NoReg)
		}},
	}
	for _, c := range cases {
		tr := newTree()
		c.build(tr)
		if _, err := bcode.Compile(tr); err == nil {
			t.Errorf("%s: Compile accepted a malformed op", c.name)
		}
	}
}

func TestExecGuardsAndCommitBits(t *testing.T) {
	tr := buildGuarded(t)
	p, err := bcode.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]ir.Value, tr.Fn.NumRegs)
	mem := make([]ir.Value, 8)
	bits := make([]byte, (p.NumGuarded+7)/8)
	env := &bcode.Env{Regs: regs, Mem: mem, Bits: bits}
	taken, dup, ncommit := p.Exec(env)
	if taken != 6 || dup != -1 {
		t.Fatalf("taken=%d dup=%d, want 6, -1", taken, dup)
	}
	// add and store commit (guard true), sub is squashed (negated guard):
	// bits 0 and 2 set, bit 1 clear.
	if bits[0] != 0b101 {
		t.Errorf("commit bits = %08b, want 101", bits[0])
	}
	if ncommit != 2 {
		t.Errorf("ncommit = %d, want 2", ncommit)
	}
	if regs[3].I != 10 {
		t.Errorf("guarded add wrote %d, want 10", regs[3].I)
	}
	if regs[4].I != 0 {
		t.Errorf("squashed sub wrote %d, want no write-back", regs[4].I)
	}
	if mem[3].I != 10 {
		t.Errorf("guarded store wrote mem[3]=%d, want 10", mem[3].I)
	}
}

func TestExecDuplicateExit(t *testing.T) {
	tr := newTree()
	tr.NewOp(ir.OpExit, nil, ir.NoReg).Exit = ir.ExitRet
	tr.NewOp(ir.OpExit, nil, ir.NoReg).Exit = ir.ExitRet
	p, err := bcode.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	env := &bcode.Env{Regs: make([]ir.Value, 1), Mem: make([]ir.Value, 1), Bits: make([]byte, 1)}
	taken, dup, _ := p.Exec(env)
	if taken != 0 || dup != 1 {
		t.Errorf("taken=%d dup=%d, want 0, 1 (second committed exit reported)", taken, dup)
	}
}

func TestExecMemoryClamping(t *testing.T) {
	// load [r0] with r0 = -5 and 99: both clamp into the 8-word image.
	tr := newTree()
	fn := tr.Fn
	r0, r1 := fn.NewReg(), fn.NewReg()
	tr.NewOp(ir.OpLoad, []ir.Reg{r0}, r1)
	tr.NewOp(ir.OpExit, nil, ir.NoReg).Exit = ir.ExitRet
	p, err := bcode.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]ir.Value, 8)
	mem[0] = ir.Value{I: 11, F: 11}
	mem[7] = ir.Value{I: 22, F: 22}
	for _, c := range []struct{ addr, want int64 }{{-5, 11}, {99, 22}, {3, 0}} {
		regs := make([]ir.Value, fn.NumRegs)
		regs[r0] = ir.Value{I: c.addr, F: float64(c.addr)}
		env := &bcode.Env{Regs: regs, Mem: mem, Bits: make([]byte, 1)}
		p.Exec(env)
		if regs[r1].I != c.want {
			t.Errorf("load [%d] = %d, want %d", c.addr, regs[r1].I, c.want)
		}
	}
}

func TestCacheReuse(t *testing.T) {
	var ctrs bcode.Counters
	c := bcode.NewCache(&ctrs)
	tr := buildGuarded(t)
	tr.PIdx = 0
	p1 := c.Get(tr)
	p2 := c.Get(tr)
	if p1 == nil || p1 != p2 {
		t.Fatalf("cache returned distinct programs for one tree")
	}
	if got := ctrs.Compiled.Load(); got != 1 {
		t.Errorf("compiled %d trees, want 1", got)
	}
	if got := ctrs.Hits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	// The cache is content-addressed: a clone of the tree (what every
	// benchmark cell's private ir.Program.Clone produces) executes
	// identically and must hit, regardless of identity or PIdx.
	tr2 := tr.Clone()
	tr2.PIdx = 17
	p3 := c.Get(tr2)
	if p3 != p1 {
		t.Errorf("identical clone missed the content-addressed cache")
	}
	if got := ctrs.Compiled.Load(); got != 1 {
		t.Errorf("compiled %d trees after clone lookup, want 1", got)
	}
	if got := ctrs.Hits.Load(); got != 2 {
		t.Errorf("cache hits after clone lookup = %d, want 2", got)
	}
	// A tree mutated after compilation keys differently and recompiles —
	// stale code must never serve changed content.
	tr2.Ops[0].Imm = ir.Value{I: 99, F: 99}
	p4 := c.Get(tr2)
	if p4 == nil || p4 == p1 {
		t.Errorf("mutated tree served the stale compiled program")
	}
	if got := ctrs.Compiled.Load(); got != 2 {
		t.Errorf("compiled %d trees after mutation, want 2", got)
	}
}

func TestCacheLimit(t *testing.T) {
	// distinctTree builds a tree whose exec key differs by the const value.
	distinctTree := func(v int64) *ir.Tree {
		tr := newTree()
		c := tr.NewOp(ir.OpConst, nil, tr.Fn.NewReg())
		c.Imm = ir.Value{I: v, F: float64(v)}
		ex := tr.NewOp(ir.OpExit, nil, ir.NoReg)
		ex.Exit = ir.ExitRet
		return tr
	}
	var ctrs bcode.Counters
	c := bcode.NewCache(&ctrs)
	c.SetLimit(2)
	a, b, d := distinctTree(1), distinctTree(2), distinctTree(3)
	c.Get(a)
	c.Get(b)
	c.Get(d) // over capacity: a (least recently used) is evicted
	if got := c.Len(); got != 2 {
		t.Fatalf("bounded cache holds %d entries, want 2", got)
	}
	if got := ctrs.Evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// b was used more recently than a, so it must still hit...
	c.Get(b)
	if got := ctrs.Hits.Load(); got != 1 {
		t.Errorf("retained entry missed: hits = %d, want 1", got)
	}
	// ...and the evicted a recompiles (b's hit refreshed it, so this
	// eviction drops d, the new least-recently-used entry).
	compiled := ctrs.Compiled.Load()
	c.Get(a)
	if got := ctrs.Compiled.Load(); got != compiled+1 {
		t.Errorf("evicted entry did not recompile: compiled = %d, want %d", got, compiled+1)
	}
	c.Get(d)
	if got := ctrs.Compiled.Load(); got != compiled+2 {
		t.Errorf("LRU refresh not honored: compiled = %d, want %d", got, compiled+2)
	}
	// Lifting the limit stops eviction: re-adding the evicted b grows the
	// cache past the old bound.
	c.SetLimit(0)
	evictions := ctrs.Evictions.Load()
	c.Get(b)
	if got := c.Len(); got != 3 {
		t.Errorf("unbounded cache holds %d entries, want 3", got)
	}
	if got := ctrs.Evictions.Load(); got != evictions {
		t.Errorf("unbounded cache evicted: %d -> %d", evictions, got)
	}
}

func TestCacheFallback(t *testing.T) {
	// A tree outside the repertoire caches its nil result too.
	tr := newTree()
	tr.NewOp(ir.OpAdd, []ir.Reg{tr.Fn.NewReg()}, tr.Fn.NewReg()) // malformed
	tr.PIdx = 0
	var ctrs bcode.Counters
	c := bcode.NewCache(&ctrs)
	if p := c.Get(tr); p != nil {
		t.Fatalf("malformed tree compiled to %v", p)
	}
	if p := c.Get(tr); p != nil {
		t.Fatalf("malformed tree compiled on second lookup")
	}
	if got := ctrs.Hits.Load(); got != 1 {
		t.Errorf("fallback lookup not cached: hits = %d, want 1", got)
	}
}

func TestDisassembly(t *testing.T) {
	tr := buildGuarded(t)
	p, err := bcode.Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Collapse the mnemonic column padding so expectations read naturally.
	dis := strings.Join(strings.Fields(p.String()), " ")
	for _, want := range []string{"const c0", "cmplt r1 r0", "add r0 r1 -> r3 ?r2 [bit 0]",
		"sub r0 r1 -> r4 ?!r2 [bit 1]", "store r1 r3 ?r2 [bit 2]", "exit"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly lacks %q:\n%s", want, dis)
		}
	}
}

// TestCacheDoesNotPinTrees checks that a cache entry keeps nothing of the
// tree it was compiled from. Caches outlive programs (spdd shares one pair
// across all requests), so an entry that pinned its first tree would keep
// that tree's whole ir.Program alive through Tree.Fn.
func TestCacheDoesNotPinTrees(t *testing.T) {
	base, err := compile.Compile(`int a[4]; void main() { a[1] = a[2] + 3; print(a[1]); }`)
	if err != nil {
		t.Fatal(err)
	}
	c := bcode.NewCache(nil)
	freed := make(chan struct{})
	func() {
		prog := base.Clone()
		for _, name := range prog.Order {
			for _, tr := range prog.Funcs[name].Trees {
				if c.Get(tr) == nil {
					t.Fatalf("tree %s did not compile", tr.Name)
				}
			}
		}
		// The finalizer watches an op of the entry tree, not the tree: a tree
		// and its Function point at each other, and the runtime never
		// finalizes an object that can reach itself.
		main := prog.Funcs[prog.Main]
		runtime.SetFinalizer(main.Trees[main.Entry].Ops[0], func(*ir.Op) { close(freed) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			if c.Len() == 0 {
				t.Fatal("cache lost its entries")
			}
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatal("a cached compilation keeps its tree reachable after the program is dropped")
}
