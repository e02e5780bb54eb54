package serve

// Chaos soak: the daemon under concurrent load with every cell faulted by a
// fixed-seed recoverable plan (compiled-engine panics + trace bit-flips).
// The contract under test is the tentpole's robustness claim end to end:
//
//   - the process never dies — every response is HTTP, never a crash;
//   - every response is byte-identical to a clean batch evaluation of the
//     same cell (recoverable faults are invisible in results) or a typed
//     error (none here: this plan is fully recoverable);
//   - the degradation rungs taken are exactly the fixed-seed pins — fault
//     dealing is seeded per cell name and each request runs a private
//     engine, so the aggregate counters are deterministic;
//   - drain under load completes in-flight requests and rejects new ones.
//
// The companion store test arms the store-level I/O fault kind (sio) in the
// daemon path: injected short reads and transient open failures must repair
// transparently with results byte-identical to the unfaulted run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"specdis/internal/resilience"
	"specdis/internal/store"
)

// soakCells are the eight concurrent clients' cells: eight benchmarks over
// all four pipelines and both latencies. Each request computes on its own
// engine, so the pinned per-cell fault counts add up over clients and
// rounds.
var soakCells = []EvalRequest{
	{Bench: "perm", Pipeline: "SPEC", MemLat: 2},
	{Bench: "queen", Pipeline: "SPEC", MemLat: 6},
	{Bench: "quick", Pipeline: "NAIVE", MemLat: 2},
	{Bench: "tree", Pipeline: "STATIC", MemLat: 6},
	{Bench: "fft", Pipeline: "SPEC", MemLat: 2},
	{Bench: "moment", Pipeline: "PERFECT", MemLat: 6},
	{Bench: "adi", Pipeline: "STATIC", MemLat: 2},
	{Bench: "boolmin", Pipeline: "NAIVE", MemLat: 6},
}

func TestChaosSoak(t *testing.T) {
	plan, err := resilience.ParsePlan("seed=7,rate=1,kinds=bpanic+flip,times=1")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Inject: plan, MaxInflight: 4, DrainTimeout: 30 * time.Second})

	// Clean oracle: a faultless server computes each cell's expected bytes.
	_, cleanTS := newTestServer(t, Config{})
	want := make([]json.RawMessage, len(soakCells))
	for i, req := range soakCells {
		status, _, resp := postEval(t, cleanTS.URL, req)
		if status != http.StatusOK {
			t.Fatalf("clean baseline %d: status %d (%+v)", i, status, resp.Error)
		}
		want[i] = resp.Result
	}

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(soakCells)*rounds)
	for i, req := range soakCells {
		wg.Add(1)
		go func(i int, req EvalRequest) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				status, _, resp := postEval(t, ts.URL, req)
				if status != http.StatusOK {
					errs <- fmt.Errorf("client %d round %d: status %d (%+v)", i, round, status, resp.Error)
					return
				}
				if !bytes.Equal(resp.Result, want[i]) {
					errs <- fmt.Errorf("client %d round %d: faulted result differs from clean baseline:\n%s\n%s",
						i, round, resp.Result, want[i])
					return
				}
				if resp.Stats.FaultsInjected == 0 {
					errs <- fmt.Errorf("client %d round %d: no faults injected — the chaos plan did not reach the engine", i, round)
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

	// The aggregate degradation counters are pinned: seeded dealing by cell
	// name × private per-request engines × a fixed cell set × 3 rounds.
	// The plan deals bpanic to four of the eight cells and flip to the
	// other four. Each bpanic cell walks the full native → bcode → tree
	// ladder (bpanic arms on both compiled engines), so the two fallback
	// counters match at 4 × 3 rounds = 12; each flip cell recaptures its
	// corrupted trace once, 4 × 3 = 12; every cell arms, 8 × 3 = 24.
	m := s.Snapshot()
	d := m.Degradation
	if d.CellFailures != 0 || d.CellPanics != 0 || d.FuelExhausted != 0 || d.DeadlineExceeded != 0 {
		t.Errorf("recoverable-only plan produced hard failures: %+v", d)
	}
	if d.NCodeFallbacks != 12 || d.BCodeFallbacks != 12 || d.TraceRecaptures != 12 || d.FaultsInjected != 24 {
		t.Errorf("degradation counters off the fixed-seed pins:\n got %+v\nwant ncode_fallbacks=12 bcode_fallbacks=12 trace_recaptures=12 faults_injected=24", d)
	}
	if m.Server.EvalErrors != 0 || m.Server.Evals != int64(len(soakCells)*rounds) {
		t.Errorf("server counters: %+v", m.Server)
	}

	// Drain under load: park one more faulted evaluation mid-flight, begin
	// the drain, and require the in-flight request to complete (still
	// byte-identical) while new work bounces with a typed 503.
	inflight := make(chan *evalResp, 1)
	statusCh := make(chan int, 1)
	go func() {
		status, _, resp := postEval(t, ts.URL, soakCells[0])
		statusCh <- status
		inflight <- resp
	}()
	for s.adm.Inflight() == 0 && len(statusCh) == 0 {
		time.Sleep(time.Millisecond)
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if status, _, resp := postEval(t, ts.URL, soakCells[1]); status != http.StatusServiceUnavailable || resp.Error == nil || resp.Error.Class != "draining" {
		t.Fatalf("eval during drain: status %d, %+v", status, resp.Error)
	}
	if status := <-statusCh; status != http.StatusOK {
		t.Fatalf("in-flight eval during drain: status %d", status)
	}
	if resp := <-inflight; !bytes.Equal(resp.Result, want[0]) {
		t.Fatal("in-flight eval completed with wrong bytes under drain")
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain under load: %v", err)
	}
}

// TestServeStoreIOFaults arms the store-level I/O fault kind (satellite:
// sio) in the daemon path: a warm request whose artifact reads suffer
// injected short reads and transient open failures must transparently
// recompute/repair — same status, same bytes, faults visible only in the
// store counters.
func TestServeStoreIOFaults(t *testing.T) {
	plan, err := resilience.ParsePlan("seed=11,rate=1,kinds=sio")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.CellKinds()) != 0 || !plan.StoreIO() {
		t.Fatalf("sio-only plan parsed wrong: cell kinds %v", plan.CellKinds())
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Mirror cmd/spdd's wiring: a sio-only plan never reaches Config.Inject
	// (which would bypass the store per cell); it arms on the store itself.
	st.ArmIOFaults(plan.Seed, plan.Rate)
	s, ts := newTestServer(t, Config{Store: st})

	req := EvalRequest{Bench: "quick", Pipeline: "SPEC", MemLat: 2}
	var results [3]json.RawMessage
	for i := range results {
		status, _, resp := postEval(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("pass %d: status %d (%+v)", i, status, resp.Error)
		}
		results[i] = resp.Result
		if !bytes.Equal(results[0], resp.Result) {
			t.Fatalf("pass %d: result changed under store I/O faults", i)
		}
	}
	m := s.Snapshot()
	if m.Store == nil {
		t.Fatal("no store metrics")
	}
	if m.Store.IOShortReads+m.Store.IOOpenErrors == 0 {
		t.Fatalf("no store I/O faults fired on the warm passes: %+v", m.Store)
	}
	if m.Store.IOShortReads > 0 && m.Store.CorruptDropped == 0 {
		t.Fatalf("short reads without corrupt-drop repairs: %+v", m.Store)
	}
	if m.Server.EvalErrors != 0 {
		t.Fatalf("store faults surfaced as request errors: %+v", m.Server)
	}
}
