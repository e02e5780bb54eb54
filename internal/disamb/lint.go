package disamb

import (
	"fmt"
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
// statically, then a fresh profiling-plus-recording interpretation whose
// trace histogram cross-validates the arc counters and the pairwise commit
// exclusion, an arc-lattice comparison of every refined pipeline against
// NAIVE, a removed-arc soundness audit for the non-speculative refinements,
// and a list-schedule audit of every tree. Unlike the Options.Verify
// debug hook (which fails the pipeline on the first violation), the lint
// engine collects every finding into a report.

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
}

// LintReport is the result of a Lint run.
type LintReport struct {
	Findings []verify.Finding
	Stats    LintStats
	// Skips describes cells whose checks were skipped on fuel or deadline
	// exhaustion — notices, not findings: a clean report may carry skips.
	Skips []string
}

// Clean reports whether the run produced no findings.
func (r *LintReport) Clean() bool { return len(r.Findings) == 0 }

// Lint prepares src under all four disambiguators and every configured
// memory latency and runs the full verifier battery over each result. The
// source is compiled once and profiled at most once: every cell prepares a
// private clone of the compiled program, and the cells that read a profile
// share one ProfileRun, taken when the first of them needs it. The
// returned error covers infrastructure failures only (the source does not
// compile, an uncorrupted program fails to run); invariant violations are
// Findings in the report.
func Lint(src string, o LintOptions) (*LintReport, error) {
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
	var run *Profiled
	var runErr error
	profiled := false

	rep := &LintReport{}
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
			po := Options{Kind: kind, MemLat: lat, SpD: params, Prog: prog.Clone(),
				Interp: Interp{Exec: o.Exec, MaxOps: maxOps, BCode: o.BCode, NCode: o.NCode}}
			var p *Prepared
			if !kind.ReadsProfile() {
				p, err = PrepareFrom(nil, po)
			} else {
				if !profiled {
					profiled = true
					run, runErr = ProfileRun(prog, po)
				}
				if err = runErr; err == nil {
					p, err = PrepareFrom(run, po)
				} else {
					// Worded as the cell's own profiling run.
					err = fmt.Errorf("%s %w", kind, err)
				}
			}
			if err != nil {
				if cls := resilience.Classify(err); cls == resilience.ClassFuel || cls == resilience.ClassDeadline {
					rep.Stats.Skipped++
					rep.Skips = append(rep.Skips, fmt.Sprintf("%s: preparation skipped [%s]: %v", cell, cls, err))
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
				dyn, err := lintDynamic(p, o.ChaosPanicAt, pairs, rep)
				if err != nil {
					switch cls := resilience.Classify(err); {
					case cls == resilience.ClassFuel || cls == resilience.ClassDeadline:
						// A budget or deadline abort says nothing about the
						// program's invariants: skip with a notice.
						rep.Stats.Skipped++
						rep.Skips = append(rep.Skips, fmt.Sprintf("%s: dynamic checks skipped [%s]: %v", cell, cls, err))
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

// lintDynamic re-profiles the prepared program with trace recording
// piggybacked on the same interpretation, under p.Interp with the
// injected-panic hook armed at chaosAt, then cross-validates the arc
// counters and the pairwise commit exclusion against the trace histogram.
// Sharing one run makes the recomputed per-arc execution counts exact, so
// any mismatch is a profiler or recorder bug, not sampling noise.
func lintDynamic(p *Prepared, chaosAt int64, pairs map[*ir.Tree][]verify.SpecPair, rep *LintReport) (*lintResult, error) {
	// Preparation may have left profile counts on the arcs (SPEC and
	// PERFECT profile before transforming); reset so the counters and the
	// histogram describe the same run of the same (final) program.
	forEachTree(p.Prog, func(t *ir.Tree) {
		for _, a := range t.Arcs {
			a.ExecCount, a.AliasCount = 0, 0
		}
	})
	r := p.runner(p.Prog, p.MemLat)
	r.Prof, r.Rec, r.ChaosPanicAt = sim.NewProfile(), trace.NewRecorder(), chaosAt
	res, err := func() (res *sim.Result, err error) {
		// The lint interpretation is a cell boundary: contain crashes.
		defer resilience.Recover(&err, "lint", p.Kind.String(), p.MemLat, "lint")
		return r.Run()
	}()
	if err != nil {
		return nil, fmt.Errorf("lint run: %w", err)
	}
	if p.Output != "" && res.Output != p.Output {
		return nil, fmt.Errorf("lint run output diverged from the preparation's profiling run")
	}
	h, err := r.Rec.Finish(res.Ops, res.Committed).Hist()
	if err != nil {
		return nil, fmt.Errorf("trace histogram: %w", err)
	}
	rep.Stats.Patterns += len(h.Entries)

	out := &lintResult{output: res.Output}
	forEachTree(p.Prog, func(t *ir.Tree) {
		out.findings = append(out.findings, verify.CrossCheckArcCounts(t, h)...)
		rep.Stats.ArcsChecked += len(t.Arcs)
		if pairs != nil {
			out.findings = append(out.findings, verify.CheckCommitExclusion(t, pairs[t], h)...)
		}
	})
	return out, nil
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
