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
	"sync/atomic"

	"specdis/internal/exper"
)

// metrics is the server-level counter set. Per-request engine stats are
// absorbed here when each request finishes, so the totals cover every
// request the daemon served — including ones whose clients disconnected.
type metrics struct {
	requests            atomic.Int64 // every eval/report request received, drained or not
	evals               atomic.Int64
	reports             atomic.Int64
	evalErrors          atomic.Int64
	dedupHits           atomic.Int64
	admissionRejections atomic.Int64
	drainRejections     atomic.Int64

	// Aggregated degradation/budget counters across every request's engine.
	ncodeFallbacks   atomic.Int64
	bcodeFallbacks   atomic.Int64
	traceRecaptures  atomic.Int64
	interpFallbacks  atomic.Int64
	cellFailures     atomic.Int64
	cellPanics       atomic.Int64
	fuelExhausted    atomic.Int64
	deadlineExceeded atomic.Int64
	faultsInjected   atomic.Int64
}

// absorb folds one finished request's engine counters into the server
// totals. Each request runs on a private Runner, so its Stats snapshot is
// exactly that request's work — no double counting.
func (m *metrics) absorb(st exper.Stats) {
	m.ncodeFallbacks.Add(st.NCodeFallbacks)
	m.bcodeFallbacks.Add(st.BCodeFallbacks)
	m.traceRecaptures.Add(st.TraceRecaptures)
	m.interpFallbacks.Add(st.InterpFallbacks)
	m.cellFailures.Add(st.CellFailures)
	m.cellPanics.Add(st.CellPanics)
	m.fuelExhausted.Add(st.FuelExhausted)
	m.deadlineExceeded.Add(st.DeadlineExceeded)
	m.faultsInjected.Add(st.FaultsInjected)
}

// Metrics is the /metrics document.
type Metrics struct {
	Server struct {
		Requests            int64 `json:"requests"`
		Evals               int64 `json:"evals"`
		Reports             int64 `json:"reports"`
		EvalErrors          int64 `json:"eval_errors"`
		DedupHits           int64 `json:"dedup_hits"`
		AdmissionRejections int64 `json:"admission_rejections"`
		DrainRejections     int64 `json:"drain_rejections"`
		Inflight            int64 `json:"inflight"`
		QueueDepth          int64 `json:"queue_depth"`
		Draining            bool  `json:"draining"`
	} `json:"server"`
	Degradation struct {
		NCodeFallbacks   int64 `json:"ncode_fallbacks"`
		BCodeFallbacks   int64 `json:"bcode_fallbacks"`
		TraceRecaptures  int64 `json:"trace_recaptures"`
		InterpFallbacks  int64 `json:"interp_fallbacks"`
		CellFailures     int64 `json:"cell_failures"`
		CellPanics       int64 `json:"cell_panics"`
		FuelExhausted    int64 `json:"fuel_exhausted"`
		DeadlineExceeded int64 `json:"deadline_exceeded"`
		FaultsInjected   int64 `json:"faults_injected"`
		TierUps          int64 `json:"tier_ups"`
	} `json:"degradation"`
	Cache struct {
		Compiled  int64 `json:"compiled"`
		Hits      int64 `json:"hits"`
		Evictions int64 `json:"evictions"`
		BCodeLen  int   `json:"bcode_len"`
		NCodeLen  int   `json:"ncode_len"`
	} `json:"cache"`
	Store *StoreMetrics `json:"store,omitempty"`
}

// StoreMetrics mirrors store.Stats for the /metrics document.
type StoreMetrics struct {
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	MemHits        int64 `json:"mem_hits"`
	Puts           int64 `json:"puts"`
	Evictions      int64 `json:"evictions"`
	CorruptDropped int64 `json:"corrupt_dropped"`
	IOShortReads   int64 `json:"io_short_reads"`
	IOOpenErrors   int64 `json:"io_open_errors"`
}

// Snapshot assembles the current /metrics document.
func (s *Server) Snapshot() *Metrics {
	var out Metrics
	out.Server.Requests = s.met.requests.Load()
	out.Server.Evals = s.met.evals.Load()
	out.Server.Reports = s.met.reports.Load()
	out.Server.EvalErrors = s.met.evalErrors.Load()
	out.Server.DedupHits = s.met.dedupHits.Load()
	out.Server.AdmissionRejections = s.met.admissionRejections.Load()
	out.Server.DrainRejections = s.met.drainRejections.Load()
	out.Server.Inflight = s.adm.Inflight()
	out.Server.QueueDepth = s.adm.QueueDepth()
	out.Server.Draining = s.draining.Load()

	out.Degradation.NCodeFallbacks = s.met.ncodeFallbacks.Load()
	out.Degradation.BCodeFallbacks = s.met.bcodeFallbacks.Load()
	out.Degradation.TraceRecaptures = s.met.traceRecaptures.Load()
	out.Degradation.InterpFallbacks = s.met.interpFallbacks.Load()
	out.Degradation.CellFailures = s.met.cellFailures.Load()
	out.Degradation.CellPanics = s.met.cellPanics.Load()
	out.Degradation.FuelExhausted = s.met.fuelExhausted.Load()
	out.Degradation.DeadlineExceeded = s.met.deadlineExceeded.Load()
	out.Degradation.FaultsInjected = s.met.faultsInjected.Load()
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
		out.Store = &StoreMetrics{
			Hits:           st.Hits,
			Misses:         st.Misses,
			MemHits:        st.MemHits,
			Puts:           st.Puts,
			Evictions:      st.Evictions,
			CorruptDropped: st.CorruptDropped,
			IOShortReads:   st.IOShortReads,
			IOOpenErrors:   st.IOOpenErrors,
		}
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
