package serve

// POST /v1/eval: evaluate one cell — a MiniC source (or named suite
// benchmark) under one disambiguation pipeline at one memory latency —
// returning its cycle prices, SpD counts and optional verifier findings.
//
// The response splits deterministic from run-dependent content: "result" is
// byte-identical to a batch (spdbench) evaluation of the same cell no matter
// the execution tier, cache warmth, concurrency, or recovered faults —
// that's the chaos soak's oracle — while "stats" carries the per-request
// budget/degradation counters that legitimately vary run to run.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/resilience"
	"specdis/internal/sim"
)

// EvalRequest is the /v1/eval body. Exactly one of Source and Bench selects
// the program.
type EvalRequest struct {
	// Source is MiniC program text; Bench names a suite benchmark.
	Source string `json:"source,omitempty"`
	Bench  string `json:"bench,omitempty"`
	// Pipeline is the disambiguation pipeline: NAIVE, STATIC, SPEC or
	// PERFECT (case-insensitive).
	Pipeline string `json:"pipeline"`
	// MemLat is the memory latency model: 2 or 6 (Table 6-1).
	MemLat int `json:"mem_lat"`
	// Exec selects the execution tier: native, bcode or tree ("" = the
	// server default). The result is byte-identical across tiers; the tier
	// only changes how fast it is produced.
	Exec string `json:"exec,omitempty"`
	// Fuel is the dynamic-operation budget (0 = server cap; capped at it).
	Fuel int64 `json:"fuel,omitempty"`
	// DeadlineMS is the wall-clock budget in milliseconds (0 = server cap;
	// capped at it). It propagates by context through admission queueing and
	// into every interpretation.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Lint additionally runs the full verifier battery (disamb.Lint) over
	// the program, reporting findings in the result.
	Lint bool `json:"lint,omitempty"`
}

// SpDCounts are the SpD application counts by dependence type.
type SpDCounts struct {
	RAW int `json:"raw"`
	WAR int `json:"war"`
	WAW int `json:"waw"`
}

// Finding is one verifier finding (Lint requests only).
type Finding struct {
	Check string `json:"check"`
	Func  string `json:"func,omitempty"`
	Tree  string `json:"tree,omitempty"`
	Msg   string `json:"msg"`
}

// EvalResult is the deterministic half of the response.
type EvalResult struct {
	Bench    string `json:"bench"`
	Pipeline string `json:"pipeline"`
	MemLat   int    `json:"mem_lat"`
	// CyclesInf is the cycle count under the infinite machine;
	// CyclesByWidth[w-1] under w functional units.
	CyclesInf     int64   `json:"cycles_inf"`
	CyclesByWidth []int64 `json:"cycles_by_width"`
	// Ops counts dynamic operations the timed simulation executed.
	Ops int64 `json:"ops"`
	// SpD are the speculative-disambiguation application counts; BaseOps and
	// AfterOps the code size before and after the transform; Grafts the
	// applied tree grafts.
	SpD      SpDCounts `json:"spd"`
	BaseOps  int       `json:"base_ops"`
	AfterOps int       `json:"after_ops"`
	Grafts   int       `json:"grafts"`
	// Findings are the verifier battery's findings (Lint requests only;
	// omitted otherwise, empty-but-present when lint ran clean).
	Findings []Finding `json:"findings,omitempty"`
	// LintClean reports a clean battery (Lint requests only).
	LintClean *bool `json:"lint_clean,omitempty"`
}

// EvalStats is the run-dependent half: what this request actually cost and
// which degradation rungs it took, as its engine's exper.Resilience
// section. Deduplicated followers carry the leader's engine stats with
// Deduped set.
type EvalStats struct {
	ElapsedMS float64 `json:"elapsed_ms"`
	Exec      string  `json:"exec"`
	Fuel      int64   `json:"fuel"`
	Deduped   bool    `json:"deduped,omitempty"`
	exper.Resilience
}

// evalPlan is a validated request: everything an evaluation needs.
type evalPlan struct {
	bench    *bench.Benchmark
	kind     disamb.Kind
	memLat   int
	exec     sim.ExecMode
	fuel     int64
	deadline time.Duration
	lint     bool
}

// key returns the single-flight identity: two requests with equal keys
// compute the identical deterministic result. The bench name is part of that
// result, so a suite benchmark and the same text submitted as source never
// share a flight. The deadline is excluded — it bounds the computation, it
// doesn't change it.
func (p *evalPlan) key() string {
	h := sha256.Sum256([]byte(p.bench.Source))
	return fmt.Sprintf("%s|%s|%s|%d|%s|%d|%t",
		p.bench.Name, hex.EncodeToString(h[:8]), p.kind, p.memLat, p.exec, p.fuel, p.lint)
}

// plan validates the request against the server's limits.
func (s *Server) plan(req *EvalRequest) (*evalPlan, *apiError) {
	p := &evalPlan{memLat: req.MemLat, lint: req.Lint}
	switch {
	case req.Source == "" && req.Bench == "":
		return nil, badRequest("one of source or bench is required")
	case req.Source != "" && req.Bench != "":
		return nil, badRequest("source and bench are mutually exclusive")
	case req.Source != "":
		if len(req.Source) > s.cfg.MaxSourceBytes {
			return nil, &apiError{
				Status: http.StatusRequestEntityTooLarge, Class: "too-large",
				Msg: fmt.Sprintf("source is %d bytes; the limit is %d", len(req.Source), s.cfg.MaxSourceBytes),
			}
		}
		// A synthetic per-request benchmark: the name is content-derived so
		// cell names — what fault plans and failure reports key on — are
		// stable for identical sources.
		sum := sha256.Sum256([]byte(req.Source))
		p.bench = &bench.Benchmark{
			Name:   "src-" + hex.EncodeToString(sum[:4]),
			Suite:  "adhoc",
			Source: req.Source,
		}
	default:
		p.bench = bench.ByName(req.Bench)
		if p.bench == nil {
			return nil, badRequest(fmt.Sprintf("unknown benchmark %q", req.Bench))
		}
	}
	switch strings.ToUpper(req.Pipeline) {
	case "NAIVE":
		p.kind = disamb.Naive
	case "STATIC":
		p.kind = disamb.Static
	case "SPEC":
		p.kind = disamb.Spec
	case "PERFECT":
		p.kind = disamb.Perfect
	default:
		return nil, badRequest(fmt.Sprintf("unknown pipeline %q (want NAIVE, STATIC, SPEC or PERFECT)", req.Pipeline))
	}
	ok := false
	for _, l := range exper.MemLats {
		ok = ok || l == req.MemLat
	}
	if !ok {
		return nil, badRequest(fmt.Sprintf("unsupported mem_lat %d (want 2 or 6)", req.MemLat))
	}
	p.exec = s.exec
	if req.Exec != "" {
		mode, ok := sim.ParseExecMode(req.Exec)
		if !ok {
			return nil, badRequest(fmt.Sprintf("unknown exec tier %q (want native, bcode or tree)", req.Exec))
		}
		p.exec = mode
	}
	if req.Fuel < 0 {
		return nil, badRequest("fuel must be non-negative")
	}
	p.fuel = s.cfg.FuelCap
	if req.Fuel > 0 && req.Fuel < p.fuel {
		p.fuel = req.Fuel
	}
	if req.DeadlineMS < 0 {
		return nil, badRequest("deadline_ms must be non-negative")
	}
	p.deadline = s.cfg.DeadlineCap
	if d := time.Duration(req.DeadlineMS) * time.Millisecond; d > 0 && d < p.deadline {
		p.deadline = d
	}
	return p, nil
}

// flight is one in-flight deduplicated computation: a leader computes,
// followers wait on done and share the deterministic result. waiters is
// refcounted so a computation every client abandoned is cancelled instead
// of burning a slot for nobody.
type flight struct {
	done    chan struct{}
	result  json.RawMessage // deterministic EvalResult bytes
	stats   EvalStats       // the leader's engine stats
	err     *apiError
	cancel  context.CancelFunc
	waiters int
}

type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// join returns the flight for key, creating it (leader = true) on first
// call. Every caller must later leave it.
func (g *flightGroup) join(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = map[string]*flight{}
	}
	if f, ok := g.m[key]; ok {
		f.waiters++
		return f, false
	}
	f := &flight{done: make(chan struct{}), waiters: 1}
	g.m[key] = f
	return f, true
}

// leave drops one waiter; when the last waiter abandons a still-running
// flight, its computation context is cancelled (the engines fail the
// remaining cells typed and the scheduler skips what never started) and the
// flight is unregistered, so a later identical request leads a fresh
// computation instead of inheriting the dying one's cancellation error.
func (g *flightGroup) leave(key string, f *flight) {
	g.mu.Lock()
	f.waiters--
	abandoned := f.waiters == 0 && !f.finished()
	if abandoned && g.m[key] == f {
		delete(g.m, key)
	}
	g.mu.Unlock()
	if abandoned && f.cancel != nil {
		f.cancel()
	}
}

// finish publishes the outcome and removes the flight from the group. The
// identity check keeps an abandoned flight's late finish from unregistering
// a successor that reused its key.
func (g *flightGroup) finish(key string, f *flight) {
	g.mu.Lock()
	if g.m[key] == f {
		delete(g.m, key)
	}
	g.mu.Unlock()
	close(f.done)
}

func (f *flight) finished() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// handleEval serves POST /v1/eval.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	done, ok := s.begin(w)
	if !ok {
		return
	}
	defer done()
	s.met.evals.Add(1)

	var req EvalRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxSourceBytes)+4096)).Decode(&req); err != nil {
		s.met.evalErrors.Add(1)
		writeError(w, badRequest("bad request body: "+err.Error()))
		return
	}
	p, apiErr := s.plan(&req)
	if apiErr != nil {
		s.met.evalErrors.Add(1)
		writeError(w, apiErr)
		return
	}

	// Propagate the request's deadline budget into everything that follows:
	// admission queueing, the engine's interpretations, and the scheduler.
	ctx, cancel := context.WithTimeout(r.Context(), p.deadline)
	defer cancel()

	key := p.key()
	f, leader := s.flights.join(key)
	defer s.flights.leave(key, f)
	if !leader {
		// Identical request already in flight: wait for its result instead
		// of computing it twice.
		s.met.dedupHits.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			s.met.evalErrors.Add(1)
			writeError(w, &apiError{
				Status: http.StatusGatewayTimeout, Class: "deadline",
				Msg: "request deadline expired waiting for an identical in-flight evaluation",
			})
			return
		}
		if f.err != nil {
			s.met.evalErrors.Add(1)
			writeError(w, f.err)
			return
		}
		st := f.stats
		st.Deduped = true
		writeEvalResponse(w, f.result, &st)
		return
	}

	// Leader: take an evaluation slot (bounded admission) and compute on a
	// context detached from this client — followers that joined the flight
	// may outlive the leader's connection; the waiter refcount cancels the
	// computation when the last one leaves.
	if apiErr := s.adm.acquire(ctx); apiErr != nil {
		if apiErr.Status == http.StatusTooManyRequests {
			s.met.admissionRejections.Add(1)
		}
		s.met.evalErrors.Add(1)
		f.err = apiErr
		s.flights.finish(key, f)
		writeError(w, apiErr)
		return
	}
	defer s.adm.release()

	cctx, ccancel := context.WithTimeout(context.Background(), p.deadline)
	defer ccancel()
	f.cancel = ccancel

	start := time.Now()
	result, stats, err := s.evaluate(cctx, p)
	elapsed := time.Since(start)
	s.met.absorb(stats)
	if err != nil {
		s.met.evalErrors.Add(1)
		f.err = errorFor(err)
		s.flights.finish(key, f)
		writeError(w, f.err)
		return
	}
	raw, merr := json.Marshal(result)
	if merr != nil {
		s.met.evalErrors.Add(1)
		f.err = &apiError{Status: http.StatusInternalServerError, Class: "internal", Msg: merr.Error()}
		s.flights.finish(key, f)
		writeError(w, f.err)
		return
	}
	f.result = raw
	f.stats = EvalStats{
		ElapsedMS:  float64(elapsed.Microseconds()) / 1000,
		Exec:       p.exec.String(),
		Fuel:       p.fuel,
		Resilience: stats.Resilience,
	}
	s.flights.finish(key, f)
	writeEvalResponse(w, f.result, &f.stats)
}

func writeEvalResponse(w http.ResponseWriter, result json.RawMessage, stats *EvalStats) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(struct {
		Result json.RawMessage `json:"result"`
		Stats  *EvalStats      `json:"stats"`
	}{result, stats})
}

// evaluate runs one cell on a private, budgeted engine wired to the shared
// service state. Panics anywhere inside the engines are recovered at the
// cell boundaries (resilience.Recover) and walk the degradation ladder; the
// outer recover is the last-resort boundary that keeps a bug in the
// assembly code here from killing the daemon.
func (s *Server) evaluate(ctx context.Context, p *evalPlan) (result *EvalResult, stats exper.Stats, err error) {
	r := s.runner(ctx, p.exec, p.fuel, p.bench)
	defer func() {
		stats = r.Stats()
		resilience.Recover(&err, p.bench.Name, p.kind.String(), p.memLat, "serve")
	}()

	m, err := r.Measure(p.bench, p.kind, p.memLat)
	if err != nil {
		return nil, stats, err
	}
	sum, err := r.Summary(p.bench, p.kind, p.memLat)
	if err != nil {
		return nil, stats, err
	}
	result = &EvalResult{
		Bench:         p.bench.Name,
		Pipeline:      p.kind.String(),
		MemLat:        p.memLat,
		CyclesInf:     m.Inf,
		CyclesByWidth: append([]int64(nil), m.ByWidth[:]...),
		Ops:           m.Ops,
		SpD:           SpDCounts{RAW: sum.RAW, WAR: sum.WAR, WAW: sum.WAW},
		BaseOps:       sum.BaseOps,
		AfterOps:      sum.AfterOps,
		Grafts:        sum.Grafts,
	}
	if p.lint {
		if err := s.lint(ctx, p, result); err != nil {
			return nil, stats, err
		}
	}
	return result, stats, nil
}

// lint runs the verifier battery over the request's program under its
// tier, fuel and deadline, adding the findings to result. A lint cell that
// ran out of fuel or time fails the request with that cell's typed error:
// a battery with a skipped cell is not clean.
func (s *Server) lint(ctx context.Context, p *evalPlan, result *EvalResult) error {
	rep, err := disamb.Lint(p.bench.Source, disamb.LintOptions{
		Exec:   p.exec,
		MaxOps: p.fuel,
		Ctx:    ctx,
		BCode:  s.bc,
		NCode:  s.nc,
	})
	if err != nil {
		return err
	}
	if err := rep.SkipErr(); err != nil {
		return err
	}
	clean := rep.Clean()
	result.LintClean = &clean
	result.Findings = make([]Finding, 0, len(rep.Findings))
	for _, fd := range rep.Findings {
		result.Findings = append(result.Findings, Finding{Check: fd.Check, Func: fd.Func, Tree: fd.Tree, Msg: fd.Msg})
	}
	return nil
}

// runner builds one request's private engine over the shared service state:
// shared caches and store, private counters and failure registry.
func (s *Server) runner(ctx context.Context, exec sim.ExecMode, fuel int64, benches ...*bench.Benchmark) *exper.Runner {
	r := exper.New()
	r.Par = s.cfg.Par
	r.Benchmarks = benches
	r.Exec = exec
	r.Fuel = fuel
	r.Ctx = ctx
	r.Inject = s.cfg.Inject
	r.Store = s.cfg.Store
	r.UseCaches(s.bc, s.nc)
	return r
}
