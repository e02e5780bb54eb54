package serve

// GET /metrics: the daemon's cumulative counters as one JSON document —
// request accounting, admission pressure, the aggregated degradation-ladder
// rungs every request's engine took, shared compiled-code cache traffic, and
// (when configured) the persistent store's counters. This document is what
// the chaos pins run against: the fixed-seed soak (chaos_test.go) and the CI
// serve-smoke job assert exact degradation counts from it.

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"

	"specdis/internal/exper"
	"specdis/internal/store"
)

// metrics is the server-level counter set. Per-request engine stats are
// absorbed here when each request finishes, so the totals cover every
// request the daemon served — including ones whose clients disconnected.
type metrics struct {
	requests            atomic.Int64 // every eval/report request received, drained or not
	evals               atomic.Int64
	reports             atomic.Int64
	evalErrors          atomic.Int64
	admissionRejections atomic.Int64
	drainRejections     atomic.Int64

	// degradation totals the degradation/budget counters of every
	// request's engine.
	mu          sync.Mutex
	degradation exper.Resilience
}

// absorb folds one finished request's engine counters into the server
// totals. Each request runs on a private Runner, so its Stats snapshot is
// exactly that request's work — no double counting.
func (m *metrics) absorb(st exper.Stats) {
	m.mu.Lock()
	m.degradation.Add(st.Resilience)
	m.mu.Unlock()
}

// Metrics is the /metrics document.
type Metrics struct {
	Server struct {
		Requests            int64 `json:"requests"`
		Evals               int64 `json:"evals"`
		Reports             int64 `json:"reports"`
		EvalErrors          int64 `json:"eval_errors"`
		AdmissionRejections int64 `json:"admission_rejections"`
		DrainRejections     int64 `json:"drain_rejections"`
		Inflight            int64 `json:"inflight"`
		QueueDepth          int64 `json:"queue_depth"`
		Draining            bool  `json:"draining"`
		// DedupHits is always 0: every request computes its own result.
		// The field stays, out of the JSON, only because perfbench/servewl.go
		// reads it; drop it with that read (ROADMAP item 2).
		DedupHits int64 `json:"-"`
	} `json:"server"`
	// Degradation is the running total of every request's exper.Resilience
	// counters, plus the shared caches' tier-ups.
	Degradation struct {
		exper.Resilience
		TierUps int64 `json:"tier_ups"`
	} `json:"degradation"`
	Cache struct {
		Compiled  int64 `json:"compiled"`
		Hits      int64 `json:"hits"`
		Evictions int64 `json:"evictions"`
		BCodeLen  int   `json:"bcode_len"`
		NCodeLen  int   `json:"ncode_len"`
	} `json:"cache"`
	// Store is the shared artifact store's counters (absent without one).
	Store *store.Stats `json:"store,omitempty"`
}

// Snapshot assembles the current /metrics document.
func (s *Server) Snapshot() *Metrics {
	var out Metrics
	out.Server.Requests = s.met.requests.Load()
	out.Server.Evals = s.met.evals.Load()
	out.Server.Reports = s.met.reports.Load()
	out.Server.EvalErrors = s.met.evalErrors.Load()
	out.Server.AdmissionRejections = s.met.admissionRejections.Load()
	out.Server.DrainRejections = s.met.drainRejections.Load()
	out.Server.Inflight = s.adm.Inflight()
	out.Server.QueueDepth = s.adm.QueueDepth()
	out.Server.Draining = s.draining.Load()

	s.met.mu.Lock()
	out.Degradation.Resilience = s.met.degradation
	s.met.mu.Unlock()
	// Tier-ups are counted where promotion happens: in the shared caches'
	// counters, not in any request's private Runner.
	out.Degradation.TierUps = s.ctrs.TierUps.Load()

	out.Cache.Compiled = s.ctrs.Compiled.Load()
	out.Cache.Hits = s.ctrs.Hits.Load()
	out.Cache.Evictions = s.ctrs.Evictions.Load()
	out.Cache.BCodeLen = s.bc.Len()
	out.Cache.NCodeLen = s.nc.Len()

	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		out.Store = &st
	}
	return &out
}

// handleMetrics serves GET /metrics. It bypasses admission and the drain
// gate: observability must work while the daemon is saturated or draining —
// that's exactly when it matters.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Snapshot())
}
