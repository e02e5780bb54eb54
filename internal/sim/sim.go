// Package sim executes decision-tree programs with guarded-execution
// semantics and prices their run time under one or more machine schedules.
//
// Semantics. Each tree execution runs every operation of the tree in a fixed
// topological order of the tree's dependence graph (the compiler's model of a
// legal issue order): operations compute speculatively, but write-back —
// register writes, memory stores, output — happens only when the guard
// evaluates true. Speculative reads through garbage addresses are clamped
// into the memory image (a non-faulting memory, per the paper's §4.6
// assumption), and speculative integer division by zero yields zero.
//
// Timing. A Runner executes, profiles and records; it never prices. A timed
// run records its trace (Runner.Rec): how often each (tree, taken exit,
// guard-commit bits) pattern executed. The Replayer prices that histogram
// under each supplied Plan (a per-tree completion-cycle table produced by a
// scheduler): a tree execution costs the maximum completion cycle over the
// operations that committed on the path to the taken exit — at least the
// exit's resolution cycle, since exits carry the branch latency. Because
// committed values are schedule-invariant, one recorded run prices any
// number of schedules.
package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"

	"specdis/internal/bcode"
	"specdis/internal/ir"
	"specdis/internal/ncode"
	"specdis/internal/resilience"
	"specdis/internal/trace"
)

// Result is the outcome of a program run.
type Result struct {
	Output string
	// Times has one entry per plan a Replayer priced: total cycles. A run
	// (Runner.Run) prices nothing and leaves it nil.
	Times []int64
	// Ops is the number of dynamic operation executions (including
	// speculative ones), a work measure.
	Ops int64
	// Committed counts the operations whose write-back actually happened:
	// Ops − Committed is the dynamic cost of speculation.
	Committed int64
	// Exit is main's return value.
	Exit ir.Value
}

// Profile is what a profiling run measured: how often each tree executed,
// how often each of its exits was taken, and, per memory-dependence arc, how
// often both endpoints committed (Exec) and how often they touched a common
// address (Alias). It holds no pointers into the profiled program: counts
// are indexed by tree index (ir.Tree.PIdx), exit op position (ir.Op.Seq) and
// arc position in Tree.Arcs, so one read-only Profile answers for any
// untransformed Clone of the profiled program, and AnnotateArcs carries its
// arc counters onto such a clone.
type Profile struct {
	// Trees[i] counts the executions of the tree with PIdx i.
	Trees []int64
	// Exits[i][seq] counts the executions of tree i that left through its
	// exit op at position seq; nil for a tree that never executed.
	Exits [][]int64
	// Arcs[i][k] are the counters of tree i's k-th arc; nil for a tree that
	// never executed.
	Arcs [][]ArcCount
}

// ArcCount is one memory-dependence arc's profiled counters: the amounts a
// profiling run adds to ir.MemArc.ExecCount and AliasCount.
type ArcCount struct {
	Exec, Alias int64
}

// NewProfile returns an empty profile; the first run it is passed to sizes
// it to that run's program.
func NewProfile() *Profile { return &Profile{} }

// ExitProb returns the measured probability that tree t leaves through exit
// e, defaulting to a uniform split when the tree never executed.
func (pr *Profile) ExitProb(t *ir.Tree, e *ir.Op) float64 {
	total := pr.TreeExecCount(t)
	if total == 0 {
		return 1 / float64(len(t.Exits()))
	}
	if exits := pr.Exits[t.PIdx]; e.Seq < len(exits) {
		return float64(exits[e.Seq]) / float64(total)
	}
	return 0
}

// TreeExecCount returns how many times tree t executed during profiling.
func (pr *Profile) TreeExecCount(t *ir.Tree) int64 {
	if t.PIdx < 0 || t.PIdx >= len(pr.Trees) {
		return 0
	}
	return pr.Trees[t.PIdx]
}

// AnnotateArcs adds the profiled arc counters onto prog's arcs, leaving them
// as if prog itself had been the profiled program. prog must have the tree
// structure of the program the profile was taken on (an untransformed Clone
// of it); a mismatch is an error, after which prog's counters are unusable.
func (pr *Profile) AnnotateArcs(prog *ir.Program) error {
	n := 0
	for _, name := range prog.Order {
		for _, t := range prog.Funcs[name].Trees {
			if t.PIdx != n || n >= len(pr.Trees) || (pr.Arcs[n] != nil && len(pr.Arcs[n]) != len(t.Arcs)) {
				return fmt.Errorf("sim: profile does not match the program at tree %s", t.Name)
			}
			for k, c := range pr.Arcs[n] {
				t.Arcs[k].ExecCount += c.Exec
				t.Arcs[k].AliasCount += c.Alias
			}
			n++
		}
	}
	if n != len(pr.Trees) {
		return fmt.Errorf("sim: profile covers %d trees, the program has %d", len(pr.Trees), n)
	}
	return nil
}

// DefaultMaxOps bounds the dynamic operation count of one run.
const DefaultMaxOps = 4_000_000_000

// Runner executes one program. A Runner is single-use per Run call but may
// be reused; memory and output reset each run.
type Runner struct {
	Prog *ir.Program
	// SemLat is the latency model the semantic execution order is defined
	// under. Ops execute in Seq order — the lowest-Seq-first topological
	// order of the dependence graph, which is the same under every latency
	// model — so the value never changes results; it is still required so
	// callers state their model explicitly. Required.
	SemLat ir.LatencyFunc
	// Prof, when non-nil, collects profiling statistics into the profile and
	// adds the run's arc counters to the program's arcs as well. Every
	// engine samples commit outcomes and addresses on every run; Prof only
	// decides whether the Runner folds those samples, so a run without it
	// leaves every arc's ExecCount and AliasCount as it found them.
	Prof *Profile
	// Rec, when non-nil, records the run's execution trace — the count of
	// every (PIdx, taken exit, guard-commit bits) pattern the run executed,
	// plus its calls and returns — which is what the Replayer prices. The
	// caller owns the recorder and finishes it with the run's Ops/Committed
	// totals.
	Rec *trace.Recorder
	// MaxOps is the run's fuel: the hard dynamic-operation budget that turns
	// a runaway program into a typed resilience.ErrFuelExhausted failure
	// instead of a hang (0 = DefaultMaxOps).
	MaxOps int64
	// Ctx, when non-nil, cancels the run: deadline expiry or cancellation
	// surfaces as an error wrapping resilience.ErrDeadline. The context is
	// polled every ctxCheckEveryOps dynamic ops, so cancellation latency is
	// bounded without a per-tree atomic load.
	Ctx context.Context
	// ChaosPanicAt, when positive, makes the run panic with
	// resilience.InjectedPanic once the dynamic op count crosses it — the
	// fault-injection hook that proves panic containment end to end.
	ChaosPanicAt int64
	// Exec selects the execution backend; the zero value is the bytecode
	// engine (ExecBytecode). ExecTree forces the reference tree walker,
	// ExecNative the closure-chain native tier.
	Exec ExecMode
	// TierUp is the adaptive-tiering hot threshold under ExecNative: a tree
	// starts on the bytecode engine and is promoted to a native closure
	// chain only once it has executed TierUp times in this run, so cold
	// trees never pay the native compile. Zero or negative compiles every
	// tree natively up front (the eager behavior, and the zero-value
	// default). Ignored by the other backends. Promotions are counted in
	// the native cache's Counters().TierUps.
	TierUp int64
	// BCode caches compiled bytecode by tree. Callers that run the same
	// program many times (or share it across Runners) should supply one;
	// left nil, the Runner creates a private cache on first use. Both caches
	// are content-addressed, so they may be shared across program clones.
	BCode *bcode.Cache
	// NCode is the native tier's compiled-chain cache, with the same
	// ownership contract as BCode.
	NCode *ncode.Cache
	// Shapes shares tree skeletons across Runners (see ShapeCache).
	// Unlike the compiled-code caches it keys on tree identity, so it must
	// only be supplied once the program's tree structure is final; left
	// nil, each Runner rebuilds shapes itself.
	Shapes *ShapeCache
	// Keys, when non-nil, makes a profiling run that also records (Prof and
	// Rec set) key every execution of a tree with memory-dependence arcs by
	// its pattern and its arcs' alias outcomes, keeping one witness per key
	// (see KeyLog). The trace and profile are unchanged by it.
	Keys *KeyLog

	mem        []ir.Value
	memHi      int64 // len(mem) - 1: the clamp bound
	out        bytes.Buffer
	ops        int64
	committed  int64
	ctxCheckAt int64      // next ops threshold at which Ctx is polled
	ctxes      []*treeCtx // dense, indexed by tree PIdx
	fnIdx      map[string]int
	mainIdx    int // Program.Order index of main, for the trace's call record
	framePool  [][]ir.Value
	argPool    [][]ir.Value
	maxFrame   int // widest register frame in the program (see Run)
	maxArgs    int // widest call-argument list in the program
	// printHook is r.printVal, bound once per Runner: every compiled
	// tree's engine views share it (newCtx).
	printHook func(ir.Value, bool)
}

// treeShape is the schedule-independent skeleton of one tree, shared by
// the interpreting Runner (exits, guarded ops, the arc split) and the trace
// Replayer (which also prices with onPath).
type treeShape struct {
	exits  []int // Seq indices of exits, in Seq order
	exitOf []int // Seq index -> exit index (meaningful for exit ops only)

	// guarded lists the Seq indices of guarded ops — the only ops whose
	// commit status can vary between executions, so a trace pattern records
	// only their commit bits (bit k: the k-th guarded op). Unguarded ops
	// always commit; the Replayer folds them into a per-exit base.
	guarded []int

	// onPath[i][e] reports whether op i's block lies on the path to the
	// tree's e-th exit: only such ops contribute to that path's time (a
	// speculative op from an untaken path occupies an issue slot but its
	// write-back gates nothing).
	onPath [][]bool

	// The dependence-profiling loop runs per tree execution over every arc,
	// so t.Arcs is pre-split into dense endpoint-Seq arrays by commit
	// behavior: arcs between two unguarded ops (awFrom/awTo — the common
	// case) always have both endpoints committed and only need the address
	// comparison, while arcs touching a guarded op (gdFrom/gdTo) need the
	// full commit check. awIdx/gdIdx map each entry back to its t.Arcs
	// index for the end-of-run fold.
	awIdx, awFrom, awTo []int32
	gdIdx, gdFrom, gdTo []int32
}

func shapeOf(t *ir.Tree) *treeShape {
	s := &treeShape{exitOf: make([]int, len(t.Ops))}
	for _, op := range t.Ops {
		if op.Kind == ir.OpExit {
			s.exitOf[op.Seq] = len(s.exits)
			s.exits = append(s.exits, op.Seq)
		}
		if op.Guard != ir.NoReg {
			s.guarded = append(s.guarded, op.Seq)
		}
	}
	s.onPath = make([][]bool, len(t.Ops))
	for i, op := range t.Ops {
		s.onPath[i] = make([]bool, len(s.exits))
		for e, exSeq := range s.exits {
			s.onPath[i][e] = t.OnPath(op.Block, t.Ops[exSeq].Block)
		}
	}
	for i, a := range t.Arcs {
		f, to := int32(a.From.Seq), int32(a.To.Seq)
		if a.From.Guard == ir.NoReg && a.To.Guard == ir.NoReg {
			s.awIdx = append(s.awIdx, int32(i))
			s.awFrom = append(s.awFrom, f)
			s.awTo = append(s.awTo, to)
		} else {
			s.gdIdx = append(s.gdIdx, int32(i))
			s.gdFrom = append(s.gdFrom, f)
			s.gdTo = append(s.gdTo, to)
		}
	}
	return s
}

// ShapeCache shares treeShape skeletons across Runner and Replayer
// instances. Building a shape is the dominant fixed cost of standing up a
// run — O(ops × exits) block-reachability walks per tree — and it depends
// only on tree structure, so repeated runs of one program (benchmark
// iterations) can reuse it. The evaluation runs each prepared program too
// few times for one to pay, and shares none.
//
// Entries key on tree identity, not content, so a cache must only ever see
// trees whose structure no longer changes: create it after op-level
// transformations (grafting, SpD) are done, never before. Arc profiling
// counters may still mutate — the shape only captures arc endpoints.
type ShapeCache struct {
	mu sync.Mutex
	m  map[*ir.Tree]*treeShape
}

// NewShapeCache returns an empty shape cache, safe for concurrent use.
func NewShapeCache() *ShapeCache {
	return &ShapeCache{m: map[*ir.Tree]*treeShape{}}
}

// of returns the cached shape for t, building it on first sight.
func (sc *ShapeCache) of(t *ir.Tree) *treeShape {
	sc.mu.Lock()
	s := sc.m[t]
	if s == nil {
		s = shapeOf(t)
		sc.m[t] = s
	}
	sc.mu.Unlock()
	return s
}

// bitBytes returns the packed guard-commit-bit width of a trace pattern.
func (s *treeShape) bitBytes() int { return (len(s.guarded) + 7) / 8 }

// treeCtx is the per-tree execution context, built once and cached.
//
// Execution order: ops run in Seq order. Dependence edges always point from
// a lower Seq to a higher one (see ir.BuildDepGraph), so Seq order is
// exactly the deterministic lowest-Seq-first topological order of the
// dependence graph under every latency model — no graph needs to be built
// to execute.
type treeCtx struct {
	*treeShape

	// committed and addrs are the per-Seq samples every engine fills on
	// every execution: each op's commit outcome and each memory op's
	// unclamped address. profileExec reads them under Runner.Prof.
	committed []bool
	addrs     []int64
	recBits   []byte // packed commit bits scratch for trace recording

	bc   *bcode.Prog // compiled bytecode (nil: tree runs on the walker)
	nc   *ncode.Prog // compiled closure chain (nil: tree runs on the walker)
	bits []byte      // packed commit bits maintained by the compiled executors

	// Adaptive tiering state (ExecNative with Runner.TierUp > 0): execs
	// counts this run's executions on the bytecode rung, tiered marks that
	// the promotion decision was already made (so a declined native compile
	// is not retried every execution).
	execs  int64
	tiered bool

	// benv / nenv are the compiled executors' machine-state views, built
	// once per tree with the bits, sample tables, memory image and print
	// hook already bound; per execution only the register frame changes
	// (see execBC / execNC).
	benv bcode.Env
	nenv ncode.Env

	// callee / calleeIdx resolve each ExitCall op (by Seq) to its target
	// function and the target's Program.Order index, so the call loop never
	// hashes a function name. nil when the tree makes no calls.
	callee    []*ir.Function
	calleeIdx []int

	profExit []int64 // per-exit execution counts (profiling runs)

	// keyed is the tree's witness state under Runner.Keys (nil otherwise,
	// and for trees without arcs).
	keyed *keyedTree

	// The dependence profile accumulates densely during profiling runs on
	// every engine (profileExec), and Run folds it into Prof and the t.Arcs
	// counters once at the end (foldProfile): nexec counts tree executions
	// (the tree's profiled count, and the ExecCount of every always-committed
	// arc), awAlias the same-address hits of the always-committed arcs, and
	// gdExec/gdAlias the both-committed and same-address hits of the arcs
	// touching guarded ops.
	nexec           int64
	awAlias         []int64
	gdExec, gdAlias []int64
}

func (r *Runner) ctx(t *ir.Tree) *treeCtx {
	if c := r.ctxes[t.PIdx]; c != nil {
		return c
	}
	return r.newCtx(t)
}

// newCtx builds and caches tree t's context on its first execution.
func (r *Runner) newCtx(t *ir.Tree) *treeCtx {
	var shape *treeShape
	if r.Shapes != nil {
		shape = r.Shapes.of(t)
	} else {
		shape = shapeOf(t)
	}
	c := &treeCtx{
		treeShape: shape,
		committed: make([]bool, len(t.Ops)),
		addrs:     make([]int64, len(t.Ops)),
	}
	// Unguarded ops commit on every execution; execTree only ever rewrites
	// the guarded entries.
	for _, op := range t.Ops {
		if op.Guard == ir.NoReg {
			c.committed[op.Seq] = true
		}
	}
	if r.Rec != nil {
		c.recBits = make([]byte, c.bitBytes())
	}
	if r.Keys.keys(t) {
		c.keyed = newKeyedTree(t)
	}
	switch r.Exec {
	case ExecBytecode:
		c.bc = r.bcodeProg(t)
	case ExecNative:
		if r.TierUp > 0 {
			// Adaptive tiering: start the tree on the bytecode engine and
			// defer the native compile until execNC sees it cross the hot
			// threshold. A tree the bytecode compiler declines runs on the
			// walker (the native compiler, which lowers through bytecode,
			// would decline it too).
			c.bc = r.bcodeProg(t)
		} else {
			c.nc = r.ncodeProg(t)
		}
	}
	if c.bc != nil || c.nc != nil {
		// Both engine views share the bits, sample tables and the Runner's
		// print hook, so a tree promoted from bytecode to native keeps them.
		if r.printHook == nil {
			r.printHook = r.printVal
		}
		c.bits = make([]byte, c.bitBytes())
		c.benv = bcode.Env{Mem: r.mem, Bits: c.bits, Print: r.printHook,
			Committed: c.committed, Addrs: c.addrs, Olds: c.olds()}
		c.nenv = ncode.Env{Mem: r.mem, Bits: c.bits, Print: r.printHook,
			Committed: c.committed, Addrs: c.addrs, Olds: c.olds()}
	}
	for _, op := range t.Ops {
		if op.Kind == ir.OpExit && op.Exit == ir.ExitCall {
			if c.callee == nil {
				c.callee = make([]*ir.Function, len(t.Ops))
				c.calleeIdx = make([]int, len(t.Ops))
			}
			c.callee[op.Seq] = r.Prog.Funcs[op.Callee]
			c.calleeIdx[op.Seq] = r.fnIdx[op.Callee]
		}
	}
	c.profExit = make([]int64, len(c.exits))
	if r.Prof != nil {
		if n := len(c.awIdx); n > 0 {
			c.awAlias = make([]int64, n)
		}
		if n := len(c.gdIdx); n > 0 {
			c.gdExec = make([]int64, n)
			c.gdAlias = make([]int64, n)
		}
	}
	r.ctxes[t.PIdx] = c
	return c
}

// ctxCheckEveryOps is how often (in dynamic ops) a run polls its context.
// At interpreter speeds this bounds cancellation latency to a few
// milliseconds while keeping the poll off the per-tree hot path.
const ctxCheckEveryOps = 1 << 16

// fuel charges one tree execution's nops dynamic operations against the
// run's budget, polls the deadline context, and fires the chaos-panic hook.
// Shared by both execution engines so fuel semantics cannot diverge. The
// charge is len(tree.Ops) regardless of tier, which is only sound because
// every compiled tier keeps instruction index == Seq — the contract the
// translation validators (internal/verify.CheckBCode/CheckNCode) check on
// every tree under the Verify debug option and in spdlint.
func (r *Runner) fuel(nops int) error {
	maxOps := r.MaxOps
	if maxOps == 0 {
		maxOps = DefaultMaxOps
	}
	r.ops += int64(nops)
	if r.ops > maxOps {
		return fmt.Errorf("sim: operation budget exceeded (%d): %w", maxOps, resilience.ErrFuelExhausted)
	}
	if r.ChaosPanicAt > 0 && r.ops >= r.ChaosPanicAt {
		panic(resilience.InjectedPanic(r.ops))
	}
	if r.Ctx != nil && r.ops >= r.ctxCheckAt {
		r.ctxCheckAt = r.ops + ctxCheckEveryOps
		if err := r.Ctx.Err(); err != nil {
			return fmt.Errorf("sim: run canceled after %d dynamic ops: %w (%w)", r.ops, resilience.ErrDeadline, err)
		}
	}
	return nil
}

// Run executes the program from main and returns the result.
func (r *Runner) Run() (*Result, error) {
	if r.SemLat == nil {
		return nil, fmt.Errorf("sim: SemLat is required")
	}
	if r.Keys != nil && (r.Prof == nil || r.Rec == nil) {
		return nil, fmt.Errorf("sim: Keys needs a profiling, recording run")
	}
	r.mem = make([]ir.Value, r.Prog.MemSize)
	r.memHi = int64(len(r.mem)) - 1
	for _, g := range r.Prog.Globals {
		copy(r.mem[g.Base:g.Base+g.Size], g.Init)
	}
	r.out.Reset()
	r.ops = 0
	r.committed = 0
	r.ctxCheckAt = 0
	if r.Ctx != nil {
		if err := r.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: run canceled before start: %w (%w)", resilience.ErrDeadline, err)
		}
	}
	r.ctxes = make([]*treeCtx, r.Prog.IndexTrees())
	r.fnIdx = make(map[string]int, len(r.Prog.Order))
	for i, name := range r.Prog.Order {
		r.fnIdx[name] = i
	}
	r.mainIdx = r.fnIdx[r.Prog.Main]
	// Size the frame/arg pools by the widest frame and call in the program,
	// so every pooled buffer fits every function and the steady-state call
	// loop never allocates.
	r.maxFrame, r.maxArgs = 1, 1
	for _, fn := range r.Prog.Funcs {
		if fn.NumRegs > r.maxFrame {
			r.maxFrame = fn.NumRegs
		}
		for _, t := range fn.Trees {
			for _, op := range t.Ops {
				if op.Kind == ir.OpExit && op.Exit == ir.ExitCall && len(op.CallArg) > r.maxArgs {
					r.maxArgs = len(op.CallArg)
				}
			}
		}
	}

	main := r.Prog.Funcs[r.Prog.Main]
	exit, err := r.call(main, r.mainIdx, nil)
	if err != nil {
		return nil, err
	}
	if r.Prof != nil {
		if err := r.foldProfile(); err != nil {
			return nil, err
		}
	}
	return &Result{
		Output:    r.out.String(),
		Ops:       r.ops,
		Committed: r.committed,
		Exit:      exit,
	}, nil
}

// foldProfile adds the run's dense profiling tables (see profileExec) into
// Prof, sizing it on first use, and the run's arc counters onto the
// program's own arcs too: every tier counts densely and the fold happens
// once, keeping *MemArc pointer chasing off the per-execution path.
func (r *Runner) foldProfile() error {
	pr := r.Prof
	if pr.Trees == nil {
		n := len(r.ctxes)
		pr.Trees = make([]int64, n)
		pr.Exits = make([][]int64, n)
		pr.Arcs = make([][]ArcCount, n)
	} else if len(pr.Trees) != len(r.ctxes) {
		return fmt.Errorf("sim: profile covers %d trees, the program has %d", len(pr.Trees), len(r.ctxes))
	}
	for _, name := range r.Prog.Order {
		for _, t := range r.Prog.Funcs[name].Trees {
			i := t.PIdx
			c := r.ctxes[i]
			if c == nil {
				continue // never executed
			}
			if pr.Exits[i] == nil {
				pr.Exits[i] = make([]int64, len(t.Ops))
				pr.Arcs[i] = make([]ArcCount, len(t.Arcs))
			}
			if len(pr.Exits[i]) != len(t.Ops) || len(pr.Arcs[i]) != len(t.Arcs) {
				return fmt.Errorf("sim: profile does not match the program at tree %s", t.Name)
			}
			pr.Trees[i] += c.nexec
			for e, n := range c.profExit {
				pr.Exits[i][c.exits[e]] += n
			}
			arcs := pr.Arcs[i]
			add := func(k int32, exec, alias int64) {
				arcs[k].Exec += exec
				arcs[k].Alias += alias
				t.Arcs[k].ExecCount += exec
				t.Arcs[k].AliasCount += alias
			}
			for k, a := range c.awIdx {
				add(a, c.nexec, c.awAlias[k])
			}
			for k, a := range c.gdIdx {
				add(a, c.gdExec[k], c.gdAlias[k])
			}
		}
	}
	return nil
}

// profileExec counts one tree execution into the run's dense profiling
// tables: the tree and its taken exit, and for every arc whether both
// endpoints committed and whether they touched the same word. The executors
// leave each op's commit status in c.committed and each memory op's
// unclamped address in c.addrs; bits are the execution's packed commit
// bits. Under Runner.Keys it also notes the execution's key, whose alias
// bits are every arc's outcome as an address compare sees it: the unclamped
// addresses equal, committed or not.
func (r *Runner) profileExec(c *treeCtx, exitIdx int, bits []byte) {
	c.profExit[exitIdx]++
	c.nexec++
	addrs, hi := c.addrs, r.memHi
	var alias []byte
	if c.keyed != nil {
		alias = c.keyed.alias
		clear(alias)
	}
	awTo, awAlias := c.awTo, c.awAlias
	for k, f := range c.awFrom {
		if a, b := addrs[f], addrs[awTo[k]]; a == b {
			awAlias[k]++
			if alias != nil {
				setBit(alias, int(c.awIdx[k]))
			}
		} else if sameWord(a, b, hi) {
			awAlias[k]++
		}
	}
	if len(c.gdFrom) > 0 {
		committed := c.committed
		gdTo := c.gdTo
		for k, f := range c.gdFrom {
			to := gdTo[k]
			if alias != nil && addrs[f] == addrs[to] {
				setBit(alias, int(c.gdIdx[k]))
			}
			if committed[f] && committed[to] {
				c.gdExec[k]++
				if sameWord(addrs[f], addrs[to], hi) {
					c.gdAlias[k]++
				}
			}
		}
	}
	if alias != nil {
		r.noteKey(c, exitIdx, bits)
	}
}

// sameWord reports whether unclamped addresses a and b clamp to the same
// word of a memory whose last index is hi.
func sameWord(a, b, hi int64) bool {
	if a == b {
		return true
	}
	if uint64(a) <= uint64(hi) && uint64(b) <= uint64(hi) {
		return false
	}
	return clampTo(a, hi) == clampTo(b, hi)
}

// clampTo clamps address a into [0, hi], the non-faulting memory's bounds.
func clampTo(a, hi int64) int64 {
	if a < 0 {
		return 0
	}
	if a > hi {
		return hi
	}
	return a
}

func setBit(b []byte, k int) { b[k>>3] |= 1 << uint(k&7) }

func (r *Runner) getFrame(n int) []ir.Value {
	if k := len(r.framePool); k > 0 && cap(r.framePool[k-1]) >= n {
		f := r.framePool[k-1][:n]
		r.framePool = r.framePool[:k-1]
		for i := range f {
			f[i] = ir.Value{}
		}
		return f
	}
	// Allocate at the program's widest frame so the pooled buffer fits every
	// function: after the warm-up to peak call depth, the loop is allocation
	// free.
	c := n
	if r.maxFrame > c {
		c = r.maxFrame
	}
	return make([]ir.Value, n, c)
}

func (r *Runner) putFrame(f []ir.Value) {
	if len(r.framePool) < 64 {
		r.framePool = append(r.framePool, f)
	}
}

// getArgs / putArgs pool call-argument buffers the same way frames are
// pooled: the buffer is dead as soon as the callee has copied its parameters
// into its frame, but recursion requires a stack of them, not one scratch.
func (r *Runner) getArgs(n int) []ir.Value {
	if k := len(r.argPool); k > 0 && cap(r.argPool[k-1]) >= n {
		a := r.argPool[k-1][:n]
		r.argPool = r.argPool[:k-1]
		return a
	}
	c := n
	if r.maxArgs > c {
		c = r.maxArgs
	}
	return make([]ir.Value, n, c)
}

func (r *Runner) putArgs(a []ir.Value) {
	if len(r.argPool) < 64 {
		r.argPool = append(r.argPool, a)
	}
}

// call runs one function invocation. fnOrd is fn's Program.Order index,
// resolved by the caller (treeCtx.calleeIdx) so recording a call never hashes
// a function name.
func (r *Runner) call(fn *ir.Function, fnOrd int, args []ir.Value) (ir.Value, error) {
	regs := r.getFrame(fn.NumRegs)
	defer r.putFrame(regs)
	for i, p := range fn.Params {
		regs[p] = args[i]
	}
	if r.Rec != nil {
		r.Rec.Call(fnOrd)
	}
	cur := fn.Entry
	mode := r.Exec
	for {
		t := fn.Trees[cur]
		var exit *ir.Op
		var err error
		switch mode {
		case ExecTree:
			exit, err = r.execTree(t, regs)
		case ExecNative:
			exit, err = r.execNC(t, regs)
		default:
			exit, err = r.execBC(t, regs)
		}
		if err != nil {
			return ir.Value{}, err
		}
		switch exit.Exit {
		case ir.ExitGoto:
			cur = exit.Target
		case ir.ExitRet:
			if r.Rec != nil {
				r.Rec.Ret()
			}
			if len(exit.Args) > 0 {
				return regs[exit.Args[0]], nil
			}
			return ir.Value{}, nil
		case ir.ExitCall:
			c := r.ctxes[t.PIdx] // built by the exec above
			cargs := r.getArgs(len(exit.CallArg))
			for i, a := range exit.CallArg {
				cargs[i] = regs[a]
			}
			rv, err := r.call(c.callee[exit.Seq], c.calleeIdx[exit.Seq], cargs)
			r.putArgs(cargs)
			if err != nil {
				return ir.Value{}, err
			}
			if exit.Dest != ir.NoReg {
				regs[exit.Dest] = rv
			}
			cur = exit.Target
		}
	}
}

// execTree executes one tree over the register frame, returning the taken
// exit op. Ops run in Seq order, which is a topological order of the
// dependence graph (see treeCtx).
func (r *Runner) execTree(t *ir.Tree, regs []ir.Value) (*ir.Op, error) {
	c := r.ctx(t)
	if err := r.fuel(len(t.Ops)); err != nil {
		return nil, err
	}

	if c.keyed != nil {
		c.keyed.snapshot(regs)
	}
	var taken *ir.Op
	var ncommit int64
	for i, op := range t.Ops {
		// Unguarded ops always commit (their committed entries are
		// pre-set); only guarded ops need their guard evaluated.
		ok := true
		if op.Guard != ir.NoReg {
			nz := regs[op.Guard].I != 0
			ok = nz != op.GuardNeg
			c.committed[i] = ok
			if ok {
				ncommit++
			}
		}

		switch op.Kind {
		case ir.OpLoad:
			a := regs[op.Args[0]].I
			c.addrs[i] = a
			if ok {
				regs[op.Dest] = r.mem[clampTo(a, r.memHi)]
			}
		case ir.OpStore:
			a := regs[op.Args[0]].I
			c.addrs[i] = a
			if ok {
				w := clampTo(a, r.memHi)
				if c.keyed != nil {
					c.keyed.olds[i] = r.mem[w]
				}
				r.mem[w] = regs[op.Args[1]]
			}
		case ir.OpPrint:
			if ok {
				r.printVal(regs[op.Args[0]], op.PrintFloat)
			}
		case ir.OpExit:
			if ok {
				if taken != nil {
					return nil, fmt.Errorf("tree %s: two exits taken (%%%d and %%%d)", t.Name, taken.ID, op.ID)
				}
				taken = op
			}
		default:
			v := evalPure(op, regs)
			if ok && op.Dest != ir.NoReg {
				regs[op.Dest] = v
			}
		}
	}
	if taken == nil {
		return nil, fmt.Errorf("tree %s: no exit taken", t.Name)
	}
	r.committed += ncommit + int64(len(t.Ops)-len(c.guarded))

	if r.Rec != nil {
		clear(c.recBits)
		for k, i := range c.guarded {
			if c.committed[i] {
				setBit(c.recBits, k)
			}
		}
		r.Rec.Tree(t.PIdx, c.exitOf[taken.Seq], c.recBits)
	}
	if r.Prof != nil {
		r.profileExec(c, c.exitOf[taken.Seq], c.recBits)
	}
	return taken, nil
}

// b2i converts a comparison result to the IR's boolean encoding.
func b2i(b bool) ir.Value {
	if b {
		return ir.Value{I: 1, F: 1}
	}
	return ir.Value{}
}

// evalPure computes the result of a side-effect-free, non-memory op.
func evalPure(op *ir.Op, regs []ir.Value) ir.Value {
	// Hot path: resolve the (at most two) operands once, without closures.
	var x, y ir.Value
	switch len(op.Args) {
	case 2:
		x, y = regs[op.Args[0]], regs[op.Args[1]]
	case 1:
		x = regs[op.Args[0]]
	}
	switch op.Kind {
	case ir.OpNop:
		return ir.Value{}
	case ir.OpConst:
		return op.Imm
	case ir.OpMove:
		return x
	case ir.OpAdd:
		return intV(x.I + y.I)
	case ir.OpSub:
		return intV(x.I - y.I)
	case ir.OpMul:
		return intV(x.I * y.I)
	case ir.OpDiv:
		d := y.I
		if d == 0 {
			return ir.Value{}
		}
		if x.I == math.MinInt64 && d == -1 {
			return intV(math.MinInt64)
		}
		return intV(x.I / d)
	case ir.OpRem:
		d := y.I
		if d == 0 {
			return ir.Value{}
		}
		if x.I == math.MinInt64 && d == -1 {
			return intV(0)
		}
		return intV(x.I % d)
	case ir.OpNeg:
		return intV(-x.I)
	case ir.OpAnd:
		return intV(x.I & y.I)
	case ir.OpOr:
		return intV(x.I | y.I)
	case ir.OpXor:
		return intV(x.I ^ y.I)
	case ir.OpNot:
		return intV(^x.I)
	case ir.OpShl:
		return intV(x.I << (uint64(y.I) & 63))
	case ir.OpShr:
		return intV(x.I >> (uint64(y.I) & 63))
	case ir.OpBNot:
		return b2i(x.I == 0)
	case ir.OpBAnd:
		return b2i(x.I != 0 && y.I != 0)
	case ir.OpBAndNot:
		return b2i(x.I != 0 && y.I == 0)
	case ir.OpCmpEQ:
		return b2i(x.I == y.I)
	case ir.OpCmpNE:
		return b2i(x.I != y.I)
	case ir.OpCmpLT:
		return b2i(x.I < y.I)
	case ir.OpCmpLE:
		return b2i(x.I <= y.I)
	case ir.OpCmpGT:
		return b2i(x.I > y.I)
	case ir.OpCmpGE:
		return b2i(x.I >= y.I)
	case ir.OpFAdd:
		return fltV(x.F + y.F)
	case ir.OpFSub:
		return fltV(x.F - y.F)
	case ir.OpFMul:
		return fltV(x.F * y.F)
	case ir.OpFDiv:
		return fltV(x.F / y.F)
	case ir.OpFNeg:
		return fltV(-x.F)
	case ir.OpFCmpEQ:
		return b2i(x.F == y.F)
	case ir.OpFCmpNE:
		return b2i(x.F != y.F)
	case ir.OpFCmpLT:
		return b2i(x.F < y.F)
	case ir.OpFCmpLE:
		return b2i(x.F <= y.F)
	case ir.OpFCmpGT:
		return b2i(x.F > y.F)
	case ir.OpFCmpGE:
		return b2i(x.F >= y.F)
	case ir.OpCvtIF:
		return fltV(float64(x.I))
	case ir.OpCvtFI:
		return cvtFI(x.F)
	case ir.OpSqrt:
		return fltV(math.Sqrt(x.F))
	case ir.OpFAbs:
		return fltV(math.Abs(x.F))
	case ir.OpSin:
		return fltV(math.Sin(x.F))
	case ir.OpCos:
		return fltV(math.Cos(x.F))
	case ir.OpExp:
		return fltV(math.Exp(x.F))
	case ir.OpLog:
		return fltV(math.Log(x.F))
	}
	panic("evalPure: unhandled op kind " + op.Kind.String())
}

func intV(i int64) ir.Value   { return ir.Value{I: i, F: float64(i)} }
func fltV(f float64) ir.Value { return ir.Value{I: int64(f), F: f} }

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

func (r *Runner) printVal(v ir.Value, isFloat bool) { writeVal(&r.out, v, isFloat) }

// writeVal writes one printed value and its newline, as a committed print
// op emits it.
func writeVal(w *bytes.Buffer, v ir.Value, isFloat bool) {
	if isFloat {
		// Round to 6 significant decimals so that output checksums are
		// robust against benign floating-point noise across schedules.
		w.WriteString(strconv.FormatFloat(v.F, 'g', 6, 64))
	} else {
		w.WriteString(strconv.FormatInt(v.I, 10))
	}
	w.WriteByte('\n')
}
