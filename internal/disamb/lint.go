package disamb

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"specdis/internal/bcode"
	"specdis/internal/compile"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/ncode"
	"specdis/internal/resilience"
	"specdis/internal/sched"
	"specdis/internal/sim"
	"specdis/internal/spd"
	"specdis/internal/trace"
	"specdis/internal/verify"
)

// This file is the lint engine behind cmd/spdlint: it prepares one source
// program under every disambiguator and runs the full internal/verify
// battery over each result — structural and speculation-safety checks
// statically, then a profiling-plus-recording interpretation whose trace
// histogram cross-validates the arc counters and the pairwise commit
// exclusion, an arc-lattice comparison of every refined pipeline against
// NAIVE, a removed-arc soundness audit for the non-speculative refinements,
// and a list-schedule audit of every tree. Unlike the Options.Verify
// debug hook (which fails the pipeline on the first violation), the lint
// engine collects every finding into a report.
//
// A Lint call interprets each distinct execution once: every dynamic check
// first looks for an earlier run of the call — the shared profiling run or
// another cell's — whose program runs exactly as the cell's does (runKey)
// and carries every arc of it, and reads that run's counters, output and
// trace histogram instead of interpreting again.

// LintOptions configure a Lint run.
type LintOptions struct {
	// MemLats are the memory latencies to prepare latency-sensitive
	// pipelines for. Default {2, 6}, the paper's L1/L2 latencies.
	// Latency-insensitive pipelines are checked once: they prepare the
	// identical program at every latency.
	MemLats []int
	// SpD overrides the transform parameters (nil = spd.DefaultParams()).
	SpD *spd.Params
	// NumFUs is the machine width used to build and audit schedules
	// (default 5, the width of the paper's Figure 6-2 machine).
	NumFUs int
	// Corrupt, when non-nil, mutates each prepared program before checking.
	// Test hook: it lets spdlint's tests prove that a seeded violation is
	// caught and reported. A cell whose static checks fail skips its
	// dynamic half (an ill-formed program cannot be interpreted reliably).
	Corrupt func(*ir.Program)
	// Exec selects the execution backend of every dynamic lint
	// interpretation (zero value: the bytecode engine), so the battery can
	// be pointed at either engine.
	Exec sim.ExecMode
	// MaxOps is the fuel budget of every lint interpretation (0 =
	// DefaultLintMaxOps). A cell whose program exhausts it — a
	// nonterminating example, say — is skipped with a notice, not failed:
	// lint checks invariants, and a program that never halts under the
	// budget violates none.
	MaxOps int64
	// Ctx, when non-nil, cancels every lint interpretation with a typed
	// deadline error (see sim.Runner.Ctx). A cell it cuts short is skipped
	// with a notice, as on fuel exhaustion.
	Ctx context.Context
	// ChaosPanicAt, when positive, arms the injected-panic hook on every
	// dynamic lint interpretation (the -chaos self-test): the recovered
	// panic must surface as a lint/run-failed finding, never kill the
	// process.
	ChaosPanicAt int64
	// BCode and NCode, when non-nil, are shared compiled-code caches
	// threaded into every preparation (the daemon, internal/serve, passes
	// its server-wide pair): content addressing makes them safe across
	// cells and target programs, so identical trees compile once. Left nil,
	// each preparation compiles through private caches.
	BCode *bcode.Cache
	NCode *ncode.Cache
	// CorruptBCode, when non-nil, mutates each tree's freshly compiled
	// bytecode program before the translation validator sees it (the
	// -corrupt bmask self-test). The corrupted program is private to the
	// check — it is compiled outside the shared caches and never executed.
	CorruptBCode func(*bcode.Prog)
	// CorruptNCode, when non-nil, mutates each tree's freshly compiled
	// native closure chain before the translation validator sees it (the
	// -corrupt nfuse self-test). Same isolation as CorruptBCode: private to
	// the check, never executed.
	CorruptNCode func(*ncode.Prog)
	// CorruptSched, when non-nil, mutates each built schedule before the
	// soundness auditor replays it (the -corrupt sched self-test).
	CorruptSched func(*sched.Schedule)
}

// DefaultLintMaxOps is the lint engine's fuel budget: generous next to the
// benchmark suite's heaviest cell yet small enough that a nonterminating
// example under lint finishes in seconds.
const DefaultLintMaxOps = 200_000_000

// LintStats counts the work a Lint run performed, so callers (and the
// golden tests) can tell a clean report from a vacuous one.
type LintStats struct {
	Cells       int // pipeline × latency preparations checked
	Trees       int // decision trees checked structurally
	Pairs       int // SpD original/duplicate pairs checked
	ArcsChecked int // arcs cross-validated against a trace histogram
	ArcsAudited int // base arcs audited for unsound removal
	Scheds      int // list schedules built
	Progs       int // compiled programs (bytecode + native) translation-validated
	Audits      int // schedules replayed by the soundness auditor
	Patterns    int // distinct trace commit patterns scanned
	Skipped     int // cells skipped on fuel or deadline exhaustion
	Interps     int // interpretations run, the shared profiling run included
}

// LintReport is the result of a Lint run.
type LintReport struct {
	Findings []verify.Finding
	Stats    LintStats
	// Skips describes cells whose checks were skipped on fuel or deadline
	// exhaustion — notices, not findings: a clean report may carry skips.
	Skips []string
	// skipErr is the first skip's budget failure (see SkipErr).
	skipErr error
}

// Clean reports whether the run produced no findings.
func (r *LintReport) Clean() bool { return len(r.Findings) == 0 }

// SkipErr returns nil when every cell was checked in full. Otherwise it
// returns the first skipped cell's fuel or deadline failure, as a
// *resilience.CellError of stage "lint" naming that cell ("lint/KIND/mN"):
// a caller that must not pass a partial battery off as clean (the daemon)
// fails with it.
func (r *LintReport) SkipErr() error { return r.skipErr }

// Lint prepares src under all four disambiguators and every configured
// memory latency and runs the full verifier battery over each result. The
// source is compiled and profiled once: every cell prepares a private clone
// of the compiled program, PERFECT and SPEC read the one ProfileRun, and a
// cell's dynamic checks reuse an earlier run of the call whose program runs
// identically (see lintRuns). The returned error covers infrastructure
// failures only (the source does not compile, an uncorrupted program fails
// to run); invariant violations are Findings in the report.
func Lint(src string, o LintOptions) (*LintReport, error) { return lint(src, o, true) }

// lint is Lint; reuse false makes every dynamic check interpret its own
// cell, the reference the differential test holds reuse to.
func lint(src string, o LintOptions, reuse bool) (*LintReport, error) {
	memLats := o.MemLats
	if len(memLats) == 0 {
		memLats = []int{2, 6}
	}
	params := spd.DefaultParams()
	if o.SpD != nil {
		params = *o.SpD
	}
	numFUs := o.NumFUs
	if numFUs <= 0 {
		numFUs = 5
	}
	maxOps := o.MaxOps
	if maxOps == 0 {
		maxOps = DefaultLintMaxOps
	}

	// One pair of compiled-code caches for every cell, unless the caller
	// shares its own.
	if o.BCode == nil {
		o.BCode = bcode.NewCache(nil)
	}
	if o.NCode == nil {
		o.NCode = ncode.NewCache(nil)
	}
	prog, err := compile.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("lint %s/mem%d: %w", Kinds[0], memLats[0], err)
	}
	in := Interp{Exec: o.Exec, MaxOps: maxOps, Ctx: o.Ctx, BCode: o.BCode, NCode: o.NCode}
	rep := &LintReport{}
	runs := &lintRuns{reuse: reuse}

	// The shared profiling run: PERFECT and SPEC prepare from it, and it is
	// the first run a dynamic check may reuse. It runs unarmed, and a
	// failure is reported by the preparations that read it.
	run, runErr := ProfileRun(prog, Options{MemLat: memLats[0], Interp: in})
	rep.Stats.Interps++
	if runErr == nil {
		runs.keep(&lintRun{key: runKey(prog, 0), prog: prog, prof: run.Profile, output: run.Output, trace: run.Trace})
	}

	// skip notes a cell whose checks a fuel or deadline abort cut short.
	skip := func(kind Kind, lat int, what string, cls resilience.Class, err error) {
		rep.Stats.Skipped++
		rep.Skips = append(rep.Skips, fmt.Sprintf("%s/mem%d: %s skipped [%s]: %v", kind, lat, what, cls, err))
		if rep.skipErr == nil {
			rep.skipErr = &resilience.CellError{Benchmark: "lint", Pipeline: kind.String(), MemLat: lat,
				Stage: "lint", Class: cls, Err: fmt.Errorf("%s skipped: %w", what, err)}
		}
	}

	// NAIVE's checked cell doubles as the arc-lattice base for every
	// refined pipeline: its conservative arc set must be a superset of
	// theirs, and its profiled alias counts drive the removal audit.
	var baseProg *ir.Program
	var baseOutput string

	for _, kind := range Kinds {
		for i, lat := range memLats {
			if i > 0 && !kind.LatencySensitive() {
				break
			}
			cell := fmt.Sprintf("%s/mem%d", kind, lat)
			po := Options{Kind: kind, MemLat: lat, SpD: params, Prog: prog.Clone(), Interp: in}
			var p *Prepared
			if !kind.ReadsProfile() {
				p, err = PrepareFrom(nil, po)
			} else if err = runErr; err == nil {
				p, err = PrepareFrom(run, po)
			} else {
				// Worded as the cell's own profiling run.
				err = fmt.Errorf("%s %w", kind, err)
			}
			if err != nil {
				if cls := resilience.Classify(err); cls == resilience.ClassFuel || cls == resilience.ClassDeadline {
					skip(kind, lat, "preparation", cls, err)
					continue
				}
				return nil, fmt.Errorf("lint %s: %w", cell, err)
			}
			if o.Corrupt != nil {
				o.Corrupt(p.Prog)
			}
			rep.Stats.Cells++

			var pairs map[*ir.Tree][]verify.SpecPair
			if kind == Spec && p.SpD != nil {
				pairs = p.SpD.TreePairs()
			}
			fs := lintStatic(p.Prog, pairs, &rep.Stats)

			// The dynamic half interprets the program; only run it on a
			// structurally sound cell.
			if len(fs) == 0 {
				dyn, err := lintDynamic(p, o.ChaosPanicAt, pairs, runs, rep)
				if err != nil {
					switch cls := resilience.Classify(err); {
					case cls == resilience.ClassFuel || cls == resilience.ClassDeadline:
						// A budget or deadline abort says nothing about the
						// program's invariants: skip with a notice.
						skip(kind, lat, "dynamic checks", cls, err)
					case cls == resilience.ClassPanic:
						// A recovered crash is always a finding, never fatal:
						// one broken cell must not kill the whole battery.
						fs = append(fs, verify.Finding{
							Check: "lint/run-failed", Func: "-", Tree: "-",
							Msg: err.Error(),
						})
					case o.Corrupt == nil:
						return nil, fmt.Errorf("lint %s: %w", cell, err)
					default:
						fs = append(fs, verify.Finding{
							Check: "lint/run-failed", Func: "-", Tree: "-",
							Msg: err.Error(),
						})
					}
				} else {
					fs = append(fs, dyn.findings...)
					if kind == Naive {
						baseProg, baseOutput = p.Prog, dyn.output
					} else if baseProg != nil {
						// SpD adds real arcs for its duplicated ops, so the
						// removal audit only applies to arc-only refinements.
						audit := kind != Spec
						fs = append(fs, verify.CompareArcPrograms(
							baseProg, p.Prog, Naive.String(), kind.String(), audit)...)
						if audit {
							forEachTree(baseProg, func(t *ir.Tree) {
								rep.Stats.ArcsAudited += len(t.Arcs)
							})
						}
						if dyn.output != baseOutput {
							fs = append(fs, verify.Finding{
								Check: "lint/output-divergence", Func: "-", Tree: "-",
								Msg: fmt.Sprintf("%s output differs from NAIVE", cell),
							})
						}
					}
				}
			}

			fs = append(fs, lintCode(p.Prog, &o, rep)...)
			fs = append(fs, lintSchedules(p.Prog, lat, numFUs, &o, rep)...)

			for _, f := range fs {
				f.Msg = cell + ": " + f.Msg
				rep.Findings = append(rep.Findings, f)
			}
		}
	}
	return rep, nil
}

// lintStatic is the static half of the battery, shared with the
// Options.Verify hook (verifyStage): the program-level structural checks,
// then every tree's speculation-safety checks and, where pairs is non-nil,
// the pair-precise mutual-exclusion check over SpD's recorded duplications.
// st, when non-nil, counts the trees and pairs checked.
func lintStatic(prog *ir.Program, pairs map[*ir.Tree][]verify.SpecPair, st *LintStats) []verify.Finding {
	fs := verify.CheckProgram(prog)
	forEachTree(prog, func(t *ir.Tree) {
		fs = append(fs, verify.CheckSpecTree(t)...)
		if pairs != nil {
			fs = append(fs, verify.CheckSpecPairs(t, pairs[t])...)
		}
		if st != nil {
			st.Trees++
			st.Pairs += len(pairs[t])
		}
	})
	return fs
}

// lintResult is the dynamic half's output for one cell.
type lintResult struct {
	findings []verify.Finding
	output   string
}

// lintDynamic profiles the prepared program with trace recording
// piggybacked on the same interpretation, under p.Interp with the
// injected-panic hook armed at chaosAt, then cross-validates the arc
// counters and the pairwise commit exclusion against the trace histogram.
// Sharing one run makes the recomputed per-arc execution counts exact, so
// any mismatch is a profiler or recorder bug, not sampling noise. The run
// is an earlier one of runs when one runs identically (lintRuns.find),
// else a fresh interpretation, kept for the cells after this one.
func lintDynamic(p *Prepared, chaosAt int64, pairs map[*ir.Tree][]verify.SpecPair, runs *lintRuns, rep *LintReport) (*lintResult, error) {
	// The run numbers trees first thing; do it here so the key, and a
	// reusing cell's program, see the indices a fresh run would.
	p.Prog.IndexTrees()
	key := runKey(p.Prog, chaosAt)
	run := runs.find(key, p.Prog)
	if run == nil {
		run = interpretLint(p, chaosAt)
		run.key = key
		rep.Stats.Interps++
		runs.keep(run)
	}
	if run.err != nil {
		return nil, fmt.Errorf("lint run: %w", relabel(run.err, p))
	}
	if p.Output != "" && run.output != p.Output {
		return nil, fmt.Errorf("lint run output diverged from the preparation's profiling run")
	}
	h, err := run.trace.Hist()
	if err != nil {
		return nil, fmt.Errorf("trace histogram: %w", err)
	}
	rep.Stats.Patterns += len(h.Entries)

	out := &lintResult{output: run.output}
	forEachTree(p.Prog, func(t *ir.Tree) {
		out.findings = append(out.findings, verify.CrossCheckArcCounts(t, h)...)
		rep.Stats.ArcsChecked += len(t.Arcs)
		if pairs != nil {
			out.findings = append(out.findings, verify.CheckCommitExclusion(t, pairs[t], h)...)
		}
	})
	return out, nil
}

// interpretLint runs the prepared program once for its dynamic checks,
// leaving the run's arc counters on p.Prog.
func interpretLint(p *Prepared, chaosAt int64) *lintRun {
	// Preparation may have left profile counts on the arcs (SPEC and
	// PERFECT profile before transforming); reset so the counters and the
	// histogram describe the same run of the same (final) program.
	forEachTree(p.Prog, func(t *ir.Tree) {
		for _, a := range t.Arcs {
			a.ExecCount, a.AliasCount = 0, 0
		}
	})
	run := &lintRun{prog: p.Prog, prof: sim.NewProfile()}
	r := p.runner(p.Prog, p.MemLat)
	r.Prof, r.Rec, r.ChaosPanicAt = run.prof, trace.NewRecorder(), chaosAt
	res, err := func() (res *sim.Result, err error) {
		// The lint interpretation is a cell boundary: contain crashes.
		defer resilience.Recover(&err, "lint", p.Kind.String(), p.MemLat, "lint")
		return r.Run()
	}()
	if err != nil {
		run.err = err
		return run
	}
	run.output, run.trace = res.Output, r.Rec.Finish(res.Ops, res.Committed)
	return run
}

// relabel names a run's recovered panic after the cell p, as p's own
// interpretation would have: a reused failure reads as the reusing cell's.
// resilience.Recover stores the panic's CellError unwrapped.
func relabel(err error, p *Prepared) error {
	if ce, ok := err.(*resilience.CellError); ok {
		c := *ce
		c.Pipeline, c.MemLat = p.Kind.String(), p.MemLat
		return &c
	}
	return err
}

// lintRun is one interpretation of a Lint call: its program, its outcome,
// and what a cell whose program runs identically reads instead of
// interpreting again.
type lintRun struct {
	key    string      // runKey of the program and the run's chaos arming
	prog   *ir.Program // the program interpreted; prof counts its arcs
	prof   *sim.Profile
	output string
	trace  *trace.Trace
	err    error // the run's failure; the other outcome fields are then unset
	// counts holds the run's arc counters by tree, in forEachTree order,
	// keyed by endpoint Seqs; built on first reuse.
	counts []map[[2]int]sim.ArcCount
}

// lintRuns are the runs of one Lint call that later cells may reuse. With
// reuse off it keeps none, and every dynamic check interprets.
type lintRuns struct {
	reuse bool
	runs  []*lintRun
}

// keep offers run for reuse by the cells after it.
func (rs *lintRuns) keep(run *lintRun) {
	if rs.reuse {
		rs.runs = append(rs.runs, run)
	}
}

// find returns a kept run that a run of prog with the given key may reuse,
// with the run's arc counters copied onto prog's arcs; nil when there is
// none. A run qualifies when its key is equal, so every execution is the
// same, and its program carries every arc of prog, matched by tree and by
// endpoint Seqs: an arc's counters depend only on when its endpoints
// commit and which addresses they touch, so the run counted each of prog's
// arcs exactly as prog's own run would.
func (rs *lintRuns) find(key string, prog *ir.Program) *lintRun {
	for _, run := range rs.runs {
		if run.key == key && run.annotate(prog) {
			return run
		}
	}
	return nil
}

// annotate copies the run's counters onto prog's arcs and reports whether
// the run counted every one of them. On false the copy may be partial; the
// cell then interprets, which resets every counter first.
func (run *lintRun) annotate(prog *ir.Program) bool {
	if run.counts == nil {
		forEachTree(run.prog, func(t *ir.Tree) {
			var got []sim.ArcCount
			if t.PIdx < len(run.prof.Arcs) {
				got = run.prof.Arcs[t.PIdx] // nil: the tree never ran
			}
			m := make(map[[2]int]sim.ArcCount, len(t.Arcs))
			for k, a := range t.Arcs {
				var c sim.ArcCount
				if got != nil {
					c = got[k]
				}
				m[[2]int{a.From.Seq, a.To.Seq}] = c
			}
			run.counts = append(run.counts, m)
		})
	}
	i, ok := 0, true
	forEachTree(prog, func(t *ir.Tree) {
		counts := run.counts[i]
		i++
		for _, a := range t.Arcs {
			c, found := counts[[2]int{a.From.Seq, a.To.Seq}]
			if !found {
				ok = false
				return
			}
			a.ExecCount, a.AliasCount = c.Exec, c.Alias
		}
	})
	return ok
}

// runKey encodes everything an interpretation of prog armed at chaosAt
// follows, so two programs with equal keys run identically: the same
// output, trace, fuel and failure, and the same counters for arcs with
// the same endpoints. It covers the memory image, the function table
// (names, order, entry trees, parameters, frame sizes), every tree's index
// and ir.AppendExecKey content, and the exit payloads that key leaves out
// (kind, target, callee, call arguments). The run's backend, fuel and
// context are the same for every run of one Lint call and stay out, and so
// do the arcs: they decide only which counters a run keeps.
func runKey(prog *ir.Program, chaosAt int64) string {
	buf := binary.AppendVarint(nil, chaosAt)
	buf = binary.AppendVarint(buf, prog.MemSize)
	buf = binary.AppendUvarint(buf, uint64(len(prog.Globals)))
	for _, g := range prog.Globals {
		buf = binary.AppendVarint(buf, g.Base)
		buf = binary.AppendVarint(buf, g.Size)
		buf = binary.AppendUvarint(buf, uint64(len(g.Init)))
		for _, v := range g.Init {
			buf = binary.AppendVarint(buf, v.I)
			buf = binary.AppendUvarint(buf, math.Float64bits(v.F))
		}
	}
	str := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	str(prog.Main)
	buf = binary.AppendUvarint(buf, uint64(len(prog.Order)))
	for _, name := range prog.Order {
		str(name)
	}
	names := prog.SortedFuncNames()
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		fn := prog.Funcs[name]
		str(name)
		buf = binary.AppendVarint(buf, int64(fn.NumRegs))
		buf = binary.AppendVarint(buf, int64(fn.Entry))
		buf = binary.AppendUvarint(buf, uint64(len(fn.Params)))
		for _, r := range fn.Params {
			buf = binary.AppendVarint(buf, int64(r))
		}
		buf = binary.AppendUvarint(buf, uint64(len(fn.Trees)))
		for _, t := range fn.Trees {
			buf = binary.AppendVarint(buf, int64(t.PIdx))
			buf = ir.AppendExecKey(buf, t)
			for _, op := range t.Ops {
				if op.Kind != ir.OpExit {
					continue
				}
				buf = append(buf, byte(op.Exit))
				buf = binary.AppendVarint(buf, int64(op.Target))
				str(op.Callee)
				buf = binary.AppendUvarint(buf, uint64(len(op.CallArg)))
				for _, r := range op.CallArg {
					buf = binary.AppendVarint(buf, int64(r))
				}
			}
		}
	}
	return string(buf)
}

// lintCode is verification layer 4 inside the lint battery: it compiles
// every tree to both executable tiers — bytecode and native closure chains
// — and runs the translation validator over each artifact. Compilation goes
// through bcode.Compile/ncode.Compile directly, not the shared caches, so
// the CorruptBCode self-test hook can mutate a program without poisoning
// compiled code another cell might execute. Trees outside a tier's
// repertoire are skipped (they run on the reference walker and leave no
// artifact to validate).
func lintCode(prog *ir.Program, o *LintOptions, rep *LintReport) []verify.Finding {
	var fs []verify.Finding
	forEachTree(prog, func(t *ir.Tree) {
		if bp, err := bcode.Compile(t); err == nil {
			if o.CorruptBCode != nil {
				o.CorruptBCode(bp)
			}
			rep.Stats.Progs++
			fs = append(fs, verify.CheckBCode(t, bp)...)
		}
		if np, err := ncode.Compile(t); err == nil {
			if o.CorruptNCode != nil {
				o.CorruptNCode(np)
			}
			rep.Stats.Progs++
			fs = append(fs, verify.CheckNCode(t, np)...)
		}
	})
	return fs
}

// lintSchedules list-schedules every tree on an n-FU machine — the same
// construction Plans uses for timed measurement, so a violation here means
// measured cycle counts are untrustworthy — and replays every schedule
// through the soundness auditor (verify.AuditSchedule). The auditor checks
// everything sched.Validate does (every op issued, dependence order, issue
// width), each violation as its own finding, reports a schedule of the
// wrong shape instead of indexing past it, and also checks completion
// latencies and the critical path the reported cycle count must attain.
func lintSchedules(prog *ir.Program, memLat, n int, o *LintOptions, rep *LintReport) []verify.Finding {
	var fs []verify.Finding
	lat := machine.Infinite(memLat).LatencyFunc()
	forEachTree(prog, func(t *ir.Tree) {
		g := ir.BuildDepGraph(t, lat)
		s := sched.FromGraph(g, n)
		if o.CorruptSched != nil {
			o.CorruptSched(s)
		}
		rep.Stats.Scheds++
		rep.Stats.Audits++
		fs = append(fs, verify.AuditSchedule(g, s, n)...)
	})
	return fs
}

// forEachTree visits every tree of the program in deterministic order.
func forEachTree(prog *ir.Program, fn func(*ir.Tree)) {
	names := prog.Order
	if len(names) == 0 {
		names = make([]string, 0, len(prog.Funcs))
		for name := range prog.Funcs {
			names = append(names, name)
		}
		sort.Strings(names)
	}
	for _, name := range names {
		for _, t := range prog.Funcs[name].Trees {
			fn(t)
		}
	}
}
