// Package disamb assembles the four disambiguator pipelines compared in the
// paper's evaluation (Table 6-4): NAIVE (no disambiguation), STATIC
// (GCD/Banerjee), SPEC (static followed by speculative disambiguation), and
// PERFECT (profile-derived removal of every superfluous arc — an optimistic
// upper bound on static disambiguation).
package disamb

import (
	"context"
	"errors"
	"fmt"

	"specdis/internal/alias"
	"specdis/internal/bcode"
	"specdis/internal/compile"
	"specdis/internal/graft"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/ncode"
	"specdis/internal/sched"
	"specdis/internal/sim"
	"specdis/internal/spd"
	"specdis/internal/trace"
	"specdis/internal/verify"
)

// Kind selects a disambiguator pipeline.
type Kind uint8

// The four disambiguators of Table 6-4.
const (
	Naive Kind = iota
	Static
	Spec
	Perfect
)

func (k Kind) String() string {
	switch k {
	case Naive:
		return "NAIVE"
	case Static:
		return "STATIC"
	case Spec:
		return "SPEC"
	case Perfect:
		return "PERFECT"
	}
	return fmt.Sprintf("disamb(%d)", int(k))
}

// LatencySensitive reports whether the pipeline's prepared program depends
// on the memory latency it targets. Only SPEC consults the latency (the SpD
// profitability heuristic weighs load latencies when picking dependences to
// speculate on); NAIVE, STATIC and PERFECT produce identical programs and
// profiles at every latency, so their evaluation cells can be shared across
// latencies.
func (k Kind) LatencySensitive() bool { return k == Spec }

// ReadsProfile reports whether the pipeline consumes a profiling run of the
// program: SPEC's heuristic reads path frequencies and alias rates, and
// PERFECT removes every arc that never aliased. NAIVE and STATIC never
// interpret the program while preparing it.
func (k Kind) ReadsProfile() bool { return k == Spec || k == Perfect }

// Kinds lists all pipelines in presentation order.
var Kinds = []Kind{Naive, Static, Spec, Perfect}

// Prepared is a program processed by one disambiguator, ready to schedule
// and measure.
type Prepared struct {
	Kind   Kind
	MemLat int
	Prog   *ir.Program
	Output string      // output of the profiling run, for validation
	SpD    *spd.Result // Spec only
	Static alias.Stats // Static and Spec only
	// BaseOps is the operation count before SpD (code-size baseline,
	// including any grafting).
	BaseOps int
	// Grafts counts applied tree grafts (0 unless Options.Graft is set).
	Grafts int
	// Interp is Options.Interp, with private compiled-code caches where the
	// options shared none. A caller adjusts one run (exper's degradation
	// ladder: backend, fuel) on a shallow copy of the Prepared.
	Interp
	// Sched shares list schedules across every Plans call of this
	// preparation (Options.Sched). It is keyed by dependence-graph content
	// and holds no tree, so it may be shared across preparations too.
	Sched *sched.Cache
	// ChaosPlans, when non-nil, mutates the plans ReplayMeasure and Measure
	// build before pricing (exper's schedule-dropping fault, set on a copy);
	// Measure builds them only once its interpretation has succeeded.
	ChaosPlans func([]*sim.Plan)
	// ChaosPanicAt, when positive, arms the injected-panic hook of Capture's
	// and Measure's interpretation (see sim.Runner.ChaosPanicAt); exper's
	// panic faults set it on a copy, inside their resilience.Recover.
	ChaosPanicAt int64
}

// Interp holds the settings of every interpretation of a program: the
// shared profiling run (ProfileRun), a preparation's private one, Capture,
// Measure and Lint's dynamic checks. Options and Prepared embed it, and
// runner is the one place the package builds a sim.Runner.
type Interp struct {
	// Exec selects the execution backend (zero value: the bytecode engine).
	Exec sim.ExecMode
	// TierUp, under sim.ExecNative, defers each tree's native compile until
	// it has executed TierUp times within a run (see sim.Runner.TierUp);
	// zero compiles eagerly.
	TierUp int64
	// MaxOps bounds each interpretation's dynamic operation count (0 =
	// sim.DefaultMaxOps). The fuzzers set a small budget so runaway
	// generated programs fail fast.
	MaxOps int64
	// Ctx, when non-nil, cancels each interpretation with a typed deadline
	// error (see sim.Runner.Ctx).
	Ctx context.Context
	// BCode and NCode, when non-nil, are the compiled-code caches of every
	// interpretation. Content addressing (ir.AppendExecKey) makes them safe
	// across op-level transformations, preparations and program clones, so
	// a sweep (internal/exper) shares one pair and identical trees compile
	// once.
	BCode *bcode.Cache
	NCode *ncode.Cache
}

// runner returns a Runner that interprets prog under these settings and
// memLat's semantic model; the caller adds what the run collects (Prof,
// Rec, Keys) and any injected-panic hook.
func (in Interp) runner(prog *ir.Program, memLat int) *sim.Runner {
	return &sim.Runner{Prog: prog, SemLat: machine.Infinite(memLat).LatencyFunc(), MaxOps: in.MaxOps, Ctx: in.Ctx,
		Exec: in.Exec, TierUp: in.TierUp, BCode: in.BCode, NCode: in.NCode}
}

// Options configure a pipeline beyond the paper's defaults.
type Options struct {
	Kind   Kind
	MemLat int
	SpD    spd.Params
	// Prog, when non-nil, is a pre-compiled program the pipeline takes
	// ownership of and mutates in place; the source string is then ignored.
	// Callers preparing several pipelines from one source compile it once and
	// hand each preparation a private ir.Program.Clone, skipping the repeated
	// lexing and lowering.
	Prog *ir.Program
	// Graft, when non-nil, enlarges decision trees by tail duplication
	// before disambiguation (the paper's §7 "grafting" extension), for
	// GraftRounds rounds (default 1).
	Graft       *graft.Params
	GraftRounds int
	// Verify runs the static verifier after every pipeline stage — lowering,
	// grafting, static disambiguation, the SpD transform (including its
	// per-application debug hook), and PERFECT's arc removal — failing the
	// preparation on the first invariant violation. Debug mode.
	Verify bool
	// Interp configures every interpretation of the prepared program — the
	// profiling run here and the later Measure and Capture runs, which read
	// it from Prepared.
	Interp
	// Sched, when non-nil, is a shared schedule cache every Plans call of
	// the preparation schedules through; left nil, the preparation creates
	// a private one. Sharing one across a sweep schedules each distinct
	// dependence graph once.
	Sched *sched.Cache
}

// verifyStage checks the program's structural and speculation-safety
// invariants after a pipeline stage, exactly as Lint's static half does
// (lintStatic); the first finding is the error. pairs, when non-nil, adds
// the pair-precise mutual-exclusion check over SpD's recorded duplications.
func verifyStage(prog *ir.Program, stage string, pairs map[*ir.Tree][]verify.SpecPair) error {
	if fs := lintStatic(prog, pairs, nil); len(fs) > 0 {
		return fmt.Errorf("verify after %s: %d finding(s), first: %s", stage, len(fs), fs[0])
	}
	return nil
}

// Prepare compiles src and applies the selected disambiguator. memLat is the
// memory latency the SpD heuristic optimizes for. The profiling run does not
// depend on it: the simulator executes in Seq order under every latency
// model.
func Prepare(src string, kind Kind, memLat int, params spd.Params) (*Prepared, error) {
	return PrepareOpts(src, Options{Kind: kind, MemLat: memLat, SpD: params})
}

// PrepareOpts is Prepare with extension options. PERFECT and SPEC profile
// the program with a private interpretation; PrepareFrom shares one run
// across preparations instead.
func PrepareOpts(src string, o Options) (*Prepared, error) {
	return prepare(src, o, nil)
}

// Profiled is one profiling interpretation of a compiled program, which
// every preparation of the program can share: the profile (it holds no
// pointers into the interpreted program), the run's output, and its
// execution trace. NAIVE, STATIC and PERFECT execute exactly the interpreted
// operation stream (their transforms change arcs only), so Trace replays
// against all three; SPEC's transformed program executes differently, and
// Derive builds its trace from the run's execution keys instead.
type Profiled struct {
	Profile *sim.Profile
	Output  string
	Trace   *trace.Trace
	// Prog is the program profiled (ProfileRun's argument, never mutated by
	// the run), and Keys the run's execution keys and their witnesses.
	Prog *ir.Program
	Keys *sim.KeyLog
}

// ProfileRun interprets prog once, profiling and recording it and keeping
// its execution keys (sim.Runner.Keys), under o.Interp (MemLat only names
// the semantic model). The run executes a private clone that is dropped
// when it returns, so prog stays untouched and may be shared; Derive reads
// it, so it must not change while the run is in use.
func ProfileRun(prog *ir.Program, o Options) (*Profiled, error) {
	run := &Profiled{Profile: sim.NewProfile(), Prog: prog, Keys: &sim.KeyLog{Trees: speculable(prog)}}
	r := o.runner(prog.Clone(), o.MemLat)
	r.Prof, r.Rec, r.Keys = run.Profile, trace.NewRecorder(), run.Keys
	res, err := r.Run()
	if err != nil {
		return nil, fmt.Errorf("profiling run: %w", err)
	}
	run.Output = res.Output
	run.Trace = r.Rec.Finish(res.Ops, res.Committed)
	return run, nil
}

// speculable marks, by PIdx, the trees of prog SpD may transform: those
// with an arc that stays ambiguous under static disambiguation, which SpD
// runs first (alias.ResolveTree removes the arcs it disproves and makes
// the ones it proves definite). Only their executions need keys.
func speculable(prog *ir.Program) []bool {
	trees := treesByPIdx(prog)
	marks := make([]bool, len(trees))
	for i, t := range trees {
		if t == nil {
			continue
		}
		for _, a := range t.Arcs {
			if v := alias.Test(a.From.Ref, a.To.Ref); a.Ambiguous && v != alias.VerdictNo && v != alias.VerdictAlways {
				marks[i] = true
			}
		}
	}
	return marks
}

// PrepareFrom is PrepareOpts for a program whose profiling run already
// happened: run is a ProfileRun of the program o.Prog is an untransformed
// Clone of, and PERFECT and SPEC read its profile, with its arc counters
// carried onto o.Prog, and its output instead of interpreting the program
// themselves. One run thus serves every preparation of a program. A nil run
// profiles privately, as PrepareOpts does. o.Prog is required, and grafting
// cannot share a run: it transforms the program the profile describes.
func PrepareFrom(run *Profiled, o Options) (*Prepared, error) {
	if o.Prog == nil || (run != nil && o.Graft != nil) {
		return nil, errors.New("disamb: PrepareFrom needs Options.Prog and, with a shared run, no grafting")
	}
	return prepare("", o, run)
}

func prepare(src string, o Options, run *Profiled) (*Prepared, error) {
	kind, memLat := o.Kind, o.MemLat
	prog := o.Prog
	if prog == nil {
		var err error
		prog, err = compile.CompileOpts(src, compile.Options{Verify: o.Verify})
		if err != nil {
			return nil, err
		}
	}
	p := &Prepared{Kind: kind, MemLat: memLat, Prog: prog, BaseOps: prog.OpCount(), Interp: o.Interp, Sched: o.Sched}
	if p.BCode == nil {
		p.BCode = bcode.NewCache(nil)
	}
	if p.NCode == nil {
		p.NCode = ncode.NewCache(nil)
	}
	if p.Sched == nil {
		p.Sched = sched.NewCache()
	}
	lat := machine.Infinite(memLat).LatencyFunc()

	// profile returns the profile grafting, PERFECT and SPEC read, with its
	// arc counters on prog: the shared run's when there is one, otherwise a
	// private interpretation of prog. Content addressing makes the shared
	// caches safe even for runs that precede an op-level transformation
	// (grafting rounds, SPEC's pre-SpD profile): the transformed trees
	// re-key and recompile, while untouched trees keep hitting.
	profile := func() (*sim.Profile, error) {
		if run != nil {
			if err := run.Profile.AnnotateArcs(prog); err != nil {
				return nil, err
			}
			p.Output = run.Output
			return run.Profile, nil
		}
		r := p.runner(prog, memLat)
		r.Prof = sim.NewProfile()
		res, err := r.Run()
		if err != nil {
			return nil, fmt.Errorf("%s profiling run: %w", kind, err)
		}
		p.Output = res.Output
		return r.Prof, nil
	}

	if o.Graft != nil {
		rounds := o.GraftRounds
		if rounds <= 0 {
			rounds = 1
		}
		for i := 0; i < rounds; i++ {
			prof, err := profile()
			if err != nil {
				return nil, err
			}
			res := graft.Program(prog, prof, *o.Graft)
			p.Grafts += res.Grafts
			if res.Grafts == 0 {
				break
			}
			if err := prog.Validate(); err != nil {
				return nil, fmt.Errorf("grafting broke the program: %w", err)
			}
		}
		// Grafting grows the pre-SpD baseline.
		p.BaseOps = prog.OpCount()
		if o.Verify {
			if err := verifyStage(prog, "grafting", nil); err != nil {
				return nil, err
			}
		}
	}

	switch kind {
	case Naive:
		// Keep every conservative arc.

	case Static:
		p.Static = alias.ResolveProgram(prog)
		if o.Verify {
			if err := verifyStage(prog, "static disambiguation", nil); err != nil {
				return nil, err
			}
		}

	case Perfect:
		if _, err := profile(); err != nil {
			return nil, err
		}
		removeSuperfluous(prog)
		if o.Verify {
			if err := verifyStage(prog, "superfluous-arc removal", nil); err != nil {
				return nil, err
			}
		}

	case Spec:
		// The profiling run precedes the SpD transform, so its stream is NOT
		// a trace of the final program; Capture records one afterwards.
		prof, err := profile()
		if err != nil {
			return nil, err
		}
		p.Static = alias.ResolveProgram(prog)
		params := o.SpD
		params.Verify = params.Verify || o.Verify
		p.SpD = spd.Transform(prog, prof, lat, params)
		if p.SpD.VerifyErr != nil {
			return nil, fmt.Errorf("SPEC transform failed verification: %w", p.SpD.VerifyErr)
		}
		if err := prog.Validate(); err != nil {
			return nil, fmt.Errorf("SPEC transform broke the program: %w", err)
		}
		if o.Verify {
			if err := verifyStage(prog, "SpD transform", p.SpD.TreePairs()); err != nil {
				return nil, err
			}
		}
	}
	if o.Verify {
		// Layers 4–5 on the final trees: translation-validate both compiled
		// tiers and audit a finite-machine list schedule for every tree, so
		// a debug preparation proves not just the IR transforms (layers 1–3
		// above) but the code the executable tiers would actually run and
		// the timelines the evaluation would report.
		if err := verifyCompiled(prog, memLat); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// verifyCompiled runs verification layers 4 and 5 over every tree of a
// prepared program, exactly as Lint does (lintCode, lintSchedules on a 5-FU
// machine): translation-validate both compiled tiers (trees outside a
// tier's repertoire run on the reference walker and are skipped), then
// audit a finite-machine list schedule. The first finding is the error.
// Used by the Verify debug option and, through it, the end-to-end
// differential fuzzer.
func verifyCompiled(prog *ir.Program, memLat int) error {
	var o LintOptions
	var rep LintReport
	fs := append(lintCode(prog, &o, &rep), lintSchedules(prog, memLat, 5, &o, &rep)...)
	if len(fs) > 0 {
		return fmt.Errorf("compiled code failed verification: %d finding(s), first: %s", len(fs), fs[0])
	}
	return nil
}

// removeSuperfluous deletes every arc whose endpoints never accessed a
// common address during profiling (including never-executed pairs): the
// paper's PERFECT construction, an optimistic bound on any real static
// disambiguator.
func removeSuperfluous(prog *ir.Program) {
	for _, name := range prog.Order {
		for _, t := range prog.Funcs[name].Trees {
			kept := t.Arcs[:0]
			for _, a := range t.Arcs {
				if a.AliasCount > 0 {
					kept = append(kept, a)
				}
			}
			t.Arcs = kept
		}
	}
}

// Plans builds pricing plans for each machine model over the prepared
// program's trees. Op latencies depend only on a model's memory latency, so
// each tree's dependence graph is built once per distinct memory latency and
// scheduled at every width of that latency's models in one p.Sched lookup:
// a graph whose content the cache has seen reuses its tables, and a new one
// is list-scheduled narrowest width first until a width no longer
// constrains it (sched.Cache). Every plan of a latency installs the shared,
// read-only completion tables.
func Plans(p *Prepared, models []machine.Model) []*sim.Plan {
	plans := make([]*sim.Plan, len(models))
	var lats []int              // distinct memory latencies, in model order
	byMemLat := map[int][]int{} // memory latency -> model indices
	widths := map[int][]int{}   // memory latency -> those models' widths
	for i, m := range models {
		plans[i] = sim.NewPlan(m.Name)
		if _, ok := byMemLat[m.MemLatency]; !ok {
			lats = append(lats, m.MemLatency)
		}
		byMemLat[m.MemLatency] = append(byMemLat[m.MemLatency], i)
		widths[m.MemLatency] = append(widths[m.MemLatency], m.NumFUs)
	}
	for _, name := range p.Prog.Order {
		for _, t := range p.Prog.Funcs[name].Trees {
			for _, memLat := range lats {
				g := ir.BuildDepGraph(t, machine.Infinite(memLat).LatencyFunc())
				comps := p.Sched.Comps(g, widths[memLat])
				for k, i := range byMemLat[memLat] {
					plans[i].SetTree(t, comps[k])
				}
			}
		}
	}
	return plans
}

// Capture records an execution trace of the prepared program for replay
// pricing, with one fresh interpretation under p.Interp, validated against
// the profiling output when there is one. A sweep replays NAIVE, STATIC and
// PERFECT from their program's shared profiling run (Profiled.Trace) and
// derives SPEC's trace from that run too (Derive), so it captures only
// when a derivation declines and on the recapture rung, which replaces a
// trace that failed its integrity check. Capture is also the oracle derived
// traces are tested against.
func Capture(p *Prepared) (*trace.Trace, error) {
	_, tr, err := record(p, "capture run")
	return tr, err
}

// record interprets the prepared program once under p.Interp, recording
// its trace, and checks the output against the profiling run's. Capture
// and Measure share it; what names the run in errors.
func record(p *Prepared, what string) (*sim.Result, *trace.Trace, error) {
	r := p.runner(p.Prog, p.MemLat)
	r.Rec, r.ChaosPanicAt = trace.NewRecorder(), p.ChaosPanicAt
	res, err := r.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: %w", p.Kind, what, err)
	}
	if p.Output != "" && res.Output != p.Output {
		return nil, nil, fmt.Errorf("%s %s output diverged from profiling run", p.Kind, what)
	}
	return res, r.Rec.Finish(res.Ops, res.Committed), nil
}

// ReplayMeasure prices the prepared program under every model by replaying
// tr against the models' schedules — no operand is evaluated. Output is
// empty (the recorded run already validated it) and Ops/Committed are the
// recorded run's.
//
// tr must trace an execution-equivalent program: same tree indices, ops,
// guards and exits (arcs may differ — they affect schedules, not
// execution). NAIVE, STATIC and PERFECT preparations of one source satisfy
// this mutually and with their source's profiling run (Profiled.Trace);
// SPEC needs a trace of its own transformed program.
func ReplayMeasure(p *Prepared, models []machine.Model, tr *trace.Trace) (*sim.Result, error) {
	return price(p, models, tr, "replay")
}

// price replays tr under models' plans, after p.ChaosPlans; what names the
// run in errors.
func price(p *Prepared, models []machine.Model, tr *trace.Trace, what string) (*sim.Result, error) {
	plans := Plans(p, models)
	if p.ChaosPlans != nil {
		p.ChaosPlans(plans)
	}
	rp := &sim.Replayer{Prog: p.Prog, Plans: plans}
	res, err := rp.Replay(tr)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", p.Kind, what, err)
	}
	return res, nil
}

// Measure interprets the prepared program once under p.Interp, recording
// its trace, and prices that trace under every model: Capture followed by
// ReplayMeasure, with the run's Output and Exit kept. Failures of either
// half are reported as the timed run's. The returned Times slice parallels
// models.
func Measure(p *Prepared, models []machine.Model) (*sim.Result, error) {
	run, tr, err := record(p, "timed run")
	if err != nil {
		return nil, err
	}
	res, err := price(p, models, tr, "timed run")
	if err != nil {
		return nil, err
	}
	res.Output, res.Exit = run.Output, run.Exit
	return res, nil
}
