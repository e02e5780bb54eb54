package serve

// Satellite: mixed-tenant concurrency. Many clients with different programs,
// pipelines and budgets hammer one daemon whose compiled-code caches and
// artifact store are shared service state. Under -race this is the proof
// that the shared state is concurrency-safe; the assertions prove that
// sharing never leaks across requests — results stay byte-identical to a
// cold single-tenant evaluation, and each response's stats describe only its
// own request's work.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"specdis/internal/store"
)

func TestMixedTenantsSharedState(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A small cache bound keeps evictions in play while tenants compete.
	s, ts := newTestServer(t, Config{Store: st, CacheLimit: 64, MaxInflight: 4})

	// Eight tenants, each with its own cell — distinct benchmarks,
	// pipelines, latencies and tiers — competing for the shared caches and
	// store.
	tenants := []EvalRequest{
		{Bench: "perm", Pipeline: "SPEC", MemLat: 2},
		{Bench: "queen", Pipeline: "SPEC", MemLat: 6, Exec: "bcode"},
		{Bench: "quick", Pipeline: "NAIVE", MemLat: 2, Exec: "tree"},
		{Bench: "tree", Pipeline: "STATIC", MemLat: 6},
		{Bench: "fft", Pipeline: "SPEC", MemLat: 2, Exec: "bcode"},
		{Bench: "moment", Pipeline: "PERFECT", MemLat: 6},
		{Bench: "adi", Pipeline: "STATIC", MemLat: 2, Lint: true},
		{Bench: "boolmin", Pipeline: "NAIVE", MemLat: 6, Exec: "tree"},
	}

	// Cold single-tenant baselines, computed on a private server (its own
	// caches, no store): the oracle for cross-tenant isolation.
	_, baseTS := newTestServer(t, Config{})
	want := make([]json.RawMessage, len(tenants))
	for i, req := range tenants {
		status, _, resp := postEval(t, baseTS.URL, req)
		if status != http.StatusOK {
			t.Fatalf("baseline %d: status %d (%+v)", i, status, resp.Error)
		}
		want[i] = resp.Result
	}

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(tenants)*rounds)
	for i, req := range tenants {
		wg.Add(1)
		go func(i int, req EvalRequest) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				status, _, resp := postEval(t, ts.URL, req)
				if status != http.StatusOK {
					errs <- fmt.Errorf("tenant %d round %d: status %d (%+v)", i, round, status, resp.Error)
					return
				}
				if !bytes.Equal(resp.Result, want[i]) {
					errs <- fmt.Errorf("tenant %d round %d: result differs from cold baseline", i, round)
					return
				}
				// Per-request stats isolation: no tenant runs chaos plans or
				// starved budgets here, so a nonzero failure/fault counter in
				// MY response would be another tenant's work leaking in.
				st := resp.Stats
				if st.CellFailures != 0 || st.CellPanics != 0 || st.FaultsInjected != 0 ||
					st.NCodeFallbacks != 0 || st.BCodeFallbacks != 0 ||
					st.FuelExhausted != 0 || st.DeadlineExceeded != 0 {
					errs <- fmt.Errorf("tenant %d round %d: foreign work in stats: %+v", i, round, st)
					return
				}
			}
		}(i, req)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// The sharing is real: the caches served cross-tenant hits, the store
	// absorbed artifacts, and nothing was reported as a server error.
	m := s.Snapshot()
	if m.Cache.Hits == 0 || m.Cache.Compiled == 0 {
		t.Errorf("shared caches idle: %+v", m.Cache)
	}
	if m.Store == nil || m.Store.Puts == 0 {
		t.Errorf("shared store idle: %+v", m.Store)
	}
	if m.Server.EvalErrors != 0 {
		t.Errorf("eval_errors %d, want 0", m.Server.EvalErrors)
	}
	if wantEvals := int64(len(tenants) * rounds); m.Server.Evals != wantEvals {
		t.Errorf("evals %d, want %d", m.Server.Evals, wantEvals)
	}
}

// TestTenantBudgetIsolation pins that one tenant's starved budget cannot
// poison a neighbor's identical cell: a fuel-starved SPEC evaluation fails
// typed while a concurrent full-budget evaluation of the same benchmark
// succeeds with clean stats.
func TestTenantBudgetIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 2})
	var wg sync.WaitGroup
	wg.Add(2)
	var starvedStatus, fullStatus int
	var starvedResp, fullResp *evalResp
	go func() {
		defer wg.Done()
		starvedStatus, _, starvedResp = postEval(t, ts.URL, EvalRequest{Bench: "fft", Pipeline: "SPEC", MemLat: 2, Fuel: 10})
	}()
	go func() {
		defer wg.Done()
		fullStatus, _, fullResp = postEval(t, ts.URL, EvalRequest{Bench: "fft", Pipeline: "SPEC", MemLat: 2})
	}()
	wg.Wait()

	if starvedStatus != http.StatusUnprocessableEntity || starvedResp.Error == nil || starvedResp.Error.Class != "fuel" {
		t.Fatalf("starved tenant: status %d, %+v", starvedStatus, starvedResp.Error)
	}
	if fullStatus != http.StatusOK {
		t.Fatalf("full-budget tenant: status %d (%+v)", fullStatus, fullResp.Error)
	}
	if st := fullResp.Stats; st.FuelExhausted != 0 || st.CellFailures != 0 {
		t.Fatalf("full-budget tenant inherited the starved tenant's failure: %+v", st)
	}
}
