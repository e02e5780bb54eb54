// Package serve is the spdd evaluation daemon: compile → disambiguate →
// schedule → price as a long-running HTTP/JSON service. The routing is thin;
// the point is the robustness contract each request gets:
//
//   - bounded admission (semaphore + queue, 429/503 + Retry-After on
//     saturation) with per-request deadline propagation via context;
//   - per-request fuel/deadline budgets threaded into the engines, so one
//     pathological program fails typed instead of wedging a worker;
//   - per-request panic isolation on the existing resilience rungs (native →
//     bcode → tree, replay → recapture → interp): a poisoned request
//     degrades and is recorded, never crashes the process;
//   - shared, size-bounded service state — one persistent artifact store and
//     one bcode/ncode compiled-code cache pair serve every request — with
//     single-flight dedup of identical in-flight requests;
//   - lifecycle endpoints (/healthz, /readyz, /metrics) and graceful drain.
//
// Endpoints: POST /v1/eval (one cell: source-or-benchmark × pipeline ×
// memory latency), GET /v1/report (the full paper evaluation, byte-identical
// to spdbench stdout), GET /healthz, /readyz, /metrics. docs/SERVICE.md is
// the API reference.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"specdis/internal/bcode"
	"specdis/internal/ncode"
	"specdis/internal/resilience"
	"specdis/internal/sim"
	"specdis/internal/store"
)

// Defaults for the zero Config.
const (
	DefaultMaxInflight    = 4
	DefaultMaxQueue       = 64
	DefaultMaxSourceBytes = 1 << 20 // 1 MiB of MiniC is far beyond the suite
	DefaultFuelCap        = 2_000_000_000
	DefaultDeadlineCap    = 2 * time.Minute
	DefaultDrainTimeout   = 30 * time.Second
	DefaultCacheLimit     = 4096 // compiled-code cache entries per tier
)

// Config configures a Server. The zero value serves with the defaults above,
// the native execution tier, no store, and no fault injection.
type Config struct {
	// Par is each request's evaluation worker-pool width (exper.Runner.Par);
	// 0 means 1 — requests are each other's parallelism, so per-request
	// pools stay narrow by default.
	Par int
	// MaxInflight bounds concurrently running evaluations; MaxQueue bounds
	// requests waiting for a slot. Beyond both: 429 + Retry-After.
	MaxInflight, MaxQueue int
	// MaxSourceBytes bounds a submitted MiniC source (413 beyond it).
	MaxSourceBytes int
	// FuelCap is the per-request dynamic-operation budget cap and default: a
	// request may ask for less fuel, never more.
	FuelCap int64
	// DeadlineCap is the per-request wall-clock budget cap and default.
	DeadlineCap time.Duration
	// DrainTimeout bounds graceful drain: in-flight requests get this long
	// to finish after Drain begins.
	DrainTimeout time.Duration
	// Exec is the default execution tier: "native" (also the empty string),
	// "bcode", or "tree"; requests may select their own. New panics on any
	// other value — a configuration typo, caught at construction. The native
	// tier always runs adaptive tiering at exper.DefaultTierUp.
	Exec string
	// CacheLimit bounds each shared compiled-code cache to N entries
	// (bcode.Cache.SetLimit); 0 means DefaultCacheLimit, negative disables
	// the bound.
	CacheLimit int
	// Store, when non-nil, is the shared persistent artifact store every
	// request's runner reads and fills.
	Store *store.Store
	// Inject is the seeded fault-injection plan threaded into every
	// request's engine (chaos mode; nil in production). Store-level sio
	// faults are armed by the caller on Store directly — see
	// resilience.FaultPlan.CellKinds.
	Inject *resilience.FaultPlan
}

func (c Config) withDefaults() Config {
	if c.Par <= 0 {
		c.Par = 1
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = DefaultMaxSourceBytes
	}
	if c.FuelCap <= 0 {
		c.FuelCap = DefaultFuelCap
	}
	if c.DeadlineCap <= 0 {
		c.DeadlineCap = DefaultDeadlineCap
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.CacheLimit == 0 {
		c.CacheLimit = DefaultCacheLimit
	}
	return c
}

// Server is the daemon: shared service state plus the HTTP handler over it.
// Create with New; the zero value is not usable.
type Server struct {
	cfg  Config
	exec sim.ExecMode // resolved Config.Exec
	adm  *admission
	mux  *http.ServeMux

	// Shared compiled-code caches: content addressing makes one pair safe
	// across every request and tenant; SetLimit bounds them so no tenant mix
	// can grow service memory without bound. ctrs accumulates their
	// compile/hit/eviction counters at the server level (per-request
	// counters stay in each request's private Runner).
	ctrs bcode.Counters
	bc   *bcode.Cache
	nc   *ncode.Cache

	flights flightGroup
	met     metrics

	draining atomic.Bool
	reqWG    sync.WaitGroup
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, adm: newAdmission(cfg.MaxInflight, cfg.MaxQueue)}
	switch cfg.Exec {
	case "", "native":
		s.exec = sim.ExecNative
	case "bcode":
		s.exec = sim.ExecBytecode
	case "tree":
		s.exec = sim.ExecTree
	default:
		panic(fmt.Sprintf("serve: unknown Config.Exec %q (want native, bcode or tree)", cfg.Exec))
	}
	s.bc = bcode.NewCache(&s.ctrs)
	s.nc = ncode.NewCache(&s.ctrs)
	if cfg.CacheLimit > 0 {
		s.bc.SetLimit(cfg.CacheLimit)
		s.nc.SetLimit(cfg.CacheLimit)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/eval", s.handleEval)
	s.mux.HandleFunc("GET /v1/report", s.handleReport)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// handleHealthz is liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is readiness: not draining, admission not saturated, and —
// when a store is configured — a live write/read probe through it. A
// not-ready daemon keeps serving in-flight work; the probe tells load
// balancers to route new work elsewhere.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	if s.adm.saturated() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("saturated\n"))
		return
	}
	if st := s.cfg.Store; st != nil {
		k := store.NewKey(store.KindPrep, []byte("serve/readyz-probe"))
		if err := st.Put(k, []byte("probe")); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("store probe failed: " + err.Error() + "\n"))
			return
		}
		if _, ok := st.Get(k); !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("store probe readback missed\n"))
			return
		}
	}
	_, _ = w.Write([]byte("ready\n"))
}

// begin registers one request with the drain ladder. It returns false (and
// writes the 503) when the daemon is draining; otherwise the caller must
// call the returned done func when the request finishes.
func (s *Server) begin(w http.ResponseWriter) (done func(), ok bool) {
	if s.draining.Load() {
		s.met.drainRejections.Add(1)
		writeError(w, &apiError{
			Status: http.StatusServiceUnavailable, Class: "draining",
			Msg: "daemon is draining", RetryAfter: 1,
		})
		return nil, false
	}
	s.reqWG.Add(1)
	if s.draining.Load() {
		// Drain began between the check and the registration: withdraw.
		s.reqWG.Done()
		s.met.drainRejections.Add(1)
		writeError(w, &apiError{
			Status: http.StatusServiceUnavailable, Class: "draining",
			Msg: "daemon is draining", RetryAfter: 1,
		})
		return nil, false
	}
	return func() { s.reqWG.Done() }, true
}

// Drain begins graceful shutdown: new requests are rejected with 503 +
// Retry-After while in-flight requests run to completion. It returns nil
// once every in-flight request finished, or the context/drain-timeout error
// if some were still running at the deadline (the caller shuts the listener
// down either way; abandoned requests die with the process).
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return context.DeadlineExceeded
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }
