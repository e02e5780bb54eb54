package disamb

import (
	"fmt"
	"sort"

	"specdis/internal/bcode"
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
// and a list-schedule validation of every tree. Unlike the Options.Verify
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
	// NumFUs is the machine width used to build and validate schedules
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
	// NoCode disables layer 4 (the compiled-code translation validator over
	// both the bytecode and native tiers); NoSched disables layer 5 (the
	// schedule-soundness auditor). Both run by default (spdlint -code,
	// -sched).
	NoCode  bool
	NoSched bool
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
	Scheds      int // list schedules built and validated
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
			p, err := PrepareOpts(src, Options{Kind: kind, MemLat: lat, SpD: params, Exec: o.Exec, MaxOps: maxOps, BCode: o.BCode, NCode: o.NCode})
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

			var fs []verify.Finding
			var pairs map[*ir.Tree][]verify.SpecPair
			if kind == Spec && p.SpD != nil {
				pairs = p.SpD.TreePairs()
			}
			fs = append(fs, verify.CheckProgram(p.Prog)...)
			forEachTree(p.Prog, func(t *ir.Tree) {
				rep.Stats.Trees++
				fs = append(fs, verify.CheckSpecTree(t)...)
				if pairs != nil {
					fs = append(fs, verify.CheckSpecPairs(t, pairs[t])...)
					rep.Stats.Pairs += len(pairs[t])
				}
			})

			// The dynamic half interprets the program; only run it on a
			// structurally sound cell.
			if len(fs) == 0 {
				dyn, err := lintDynamic(p, lat, o.ChaosPanicAt, pairs, rep)
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

			if !o.NoCode {
				fs = append(fs, lintCode(p.Prog, &o, rep)...)
			}
			fs = append(fs, lintSchedules(p.Prog, lat, numFUs, &o, rep)...)

			for _, f := range fs {
				f.Msg = cell + ": " + f.Msg
				rep.Findings = append(rep.Findings, f)
			}
		}
	}
	return rep, nil
}

// lintResult is the dynamic half's output for one cell.
type lintResult struct {
	findings []verify.Finding
	output   string
}

// lintDynamic re-profiles the prepared program with trace recording
// piggybacked on the same interpretation, then cross-validates the arc
// counters and the pairwise commit exclusion against the trace histogram.
// Sharing one run makes the recomputed per-arc execution counts exact, so
// any mismatch is a profiler or recorder bug, not sampling noise.
func lintDynamic(p *Prepared, memLat int, chaosAt int64, pairs map[*ir.Tree][]verify.SpecPair, rep *LintReport) (*lintResult, error) {
	// Preparation may have left profile counts on the arcs (SPEC and
	// PERFECT profile before transforming); reset so the counters and the
	// histogram describe the same run of the same (final) program.
	forEachTree(p.Prog, func(t *ir.Tree) {
		for _, a := range t.Arcs {
			a.ExecCount, a.AliasCount = 0, 0
		}
	})
	rec := trace.NewRecorder()
	r := &sim.Runner{
		Prog:         p.Prog,
		SemLat:       machine.Infinite(memLat).LatencyFunc(),
		Prof:         sim.NewProfile(),
		Rec:          rec,
		MaxOps:       p.MaxOps,
		ChaosPanicAt: chaosAt,
		Exec:         p.Exec,
		BCode:        p.BCode,
		NCode:        p.NCode,
		Shapes:       p.Shapes,
	}
	res, err := func() (res *sim.Result, err error) {
		// The lint interpretation is a cell boundary: contain crashes.
		defer resilience.Recover(&err, "lint", p.Kind.String(), memLat, "lint")
		return r.Run()
	}()
	if err != nil {
		return nil, fmt.Errorf("lint run: %w", err)
	}
	if p.Output != "" && res.Output != p.Output {
		return nil, fmt.Errorf("lint run output diverged from the preparation's profiling run")
	}
	h, err := rec.Finish(res.Ops, res.Committed).Hist()
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

// lintSchedules list-schedules every tree on an n-FU machine and validates
// the result against the tree's dependence graph — the same construction
// Plans uses for timed measurement, so a violation here means measured
// cycle counts are untrustworthy. Unless layer 5 is disabled, every built
// schedule is additionally replayed by the soundness auditor
// (verify.AuditSchedule), which also recomputes the critical path the
// reported cycle count must attain.
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
		if err := sched.Validate(g, s, n); err != nil {
			fs = append(fs, verify.Finding{
				Check: "sched/invalid",
				Func:  t.Fn.Name,
				Tree:  fmt.Sprintf("T%d(%s)", t.ID, t.Name),
				Msg:   err.Error(),
			})
		}
		if !o.NoSched {
			rep.Stats.Audits++
			fs = append(fs, verify.AuditSchedule(g, s, n)...)
		}
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
