package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/resilience"
	"specdis/internal/store"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// evalResp decodes both response shapes: a success ({"result","stats"}) and
// a typed error ({"error"}).
type evalResp struct {
	Result json.RawMessage `json:"result"`
	Stats  *EvalStats      `json:"stats"`
	Error  *apiError       `json:"error"`
}

func postEval(t *testing.T, base string, req EvalRequest) (int, http.Header, *evalResp) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out evalResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, resp.Header, &out
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// TestEvalMatrix evaluates one benchmark under all four pipelines on every
// execution tier and pins the cross-tier identity: the deterministic result
// bytes must not depend on the tier, and they must equal what a direct batch
// Runner computes for the same cell.
func TestEvalMatrix(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	b := bench.ByName("perm")

	batch := exper.New()
	batch.Par = 1
	batch.Benchmarks = []*bench.Benchmark{b}

	for _, pipe := range []string{"NAIVE", "STATIC", "SPEC", "PERFECT"} {
		var first json.RawMessage
		for _, exec := range []string{"native", "bcode", "tree"} {
			status, _, resp := postEval(t, ts.URL, EvalRequest{
				Bench: "perm", Pipeline: pipe, MemLat: 2, Exec: exec,
			})
			if status != http.StatusOK {
				t.Fatalf("%s/%s: status %d (%+v)", pipe, exec, status, resp.Error)
			}
			if resp.Stats == nil || resp.Stats.Exec != exec {
				t.Fatalf("%s/%s: stats %+v", pipe, exec, resp.Stats)
			}
			if first == nil {
				first = resp.Result
			} else if !bytes.Equal(first, resp.Result) {
				t.Fatalf("%s: result differs across tiers:\n%s\n%s", pipe, first, resp.Result)
			}
		}

		var res EvalResult
		if err := json.Unmarshal(first, &res); err != nil {
			t.Fatal(err)
		}
		kind := mustKind(t, pipe)
		m, err := batch.Measure(b, kind, 2)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := batch.Summary(b, kind, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.CyclesInf != m.Inf || res.Ops != m.Ops {
			t.Fatalf("%s: cycles_inf/ops %d/%d, batch %d/%d", pipe, res.CyclesInf, res.Ops, m.Inf, m.Ops)
		}
		for w := range m.ByWidth {
			if res.CyclesByWidth[w] != m.ByWidth[w] {
				t.Fatalf("%s: width %d cycles %d, batch %d", pipe, w+1, res.CyclesByWidth[w], m.ByWidth[w])
			}
		}
		if res.SpD.RAW != sum.RAW || res.SpD.WAR != sum.WAR || res.SpD.WAW != sum.WAW ||
			res.BaseOps != sum.BaseOps || res.AfterOps != sum.AfterOps || res.Grafts != sum.Grafts {
			t.Fatalf("%s: summary %+v vs batch %+v", pipe, res, sum)
		}
	}
}

func mustKind(t *testing.T, name string) disamb.Kind {
	t.Helper()
	p, apiErr := New(Config{}).plan(&EvalRequest{Bench: "perm", Pipeline: name, MemLat: 2})
	if apiErr != nil {
		t.Fatalf("plan(%s): %v", name, apiErr)
	}
	return p.kind
}

// TestEvalSourceSubmission submits MiniC text instead of naming a benchmark:
// the cycle prices must match the named evaluation of the same program, and
// the synthetic bench name must be content-derived.
func TestEvalSourceSubmission(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := bench.ByName("quick").Source

	status, _, byName := postEval(t, ts.URL, EvalRequest{Bench: "quick", Pipeline: "SPEC", MemLat: 6})
	if status != http.StatusOK {
		t.Fatalf("bench eval: status %d (%+v)", status, byName.Error)
	}
	status, _, bySrc := postEval(t, ts.URL, EvalRequest{Source: src, Pipeline: "SPEC", MemLat: 6})
	if status != http.StatusOK {
		t.Fatalf("source eval: status %d (%+v)", status, bySrc.Error)
	}
	var a, b EvalResult
	if err := json.Unmarshal(byName.Result, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bySrc.Result, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.Bench, "src-") {
		t.Fatalf("synthetic bench name %q", b.Bench)
	}
	if a.CyclesInf != b.CyclesInf || a.Ops != b.Ops || a.SpD != b.SpD {
		t.Fatalf("source eval diverged from named eval: %+v vs %+v", b, a)
	}

	// The same source twice must produce the same synthetic name (fault
	// plans and failure reports key on cell names).
	status, _, again := postEval(t, ts.URL, EvalRequest{Source: src, Pipeline: "SPEC", MemLat: 6})
	if status != http.StatusOK {
		t.Fatal("repeat source eval failed")
	}
	var c EvalResult
	if err := json.Unmarshal(again.Result, &c); err != nil {
		t.Fatal(err)
	}
	if c.Bench != b.Bench {
		t.Fatalf("synthetic name unstable: %q vs %q", c.Bench, b.Bench)
	}
}

// TestEvalValidation pins the error taxonomy's input half: every malformed
// request maps to the documented status and class, before any evaluation
// work happens.
func TestEvalValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSourceBytes: 256})
	cases := []struct {
		name   string
		req    EvalRequest
		status int
		class  string
	}{
		{"neither source nor bench", EvalRequest{Pipeline: "SPEC", MemLat: 2}, 400, "bad-request"},
		{"both source and bench", EvalRequest{Source: "int x;", Bench: "perm", Pipeline: "SPEC", MemLat: 2}, 400, "bad-request"},
		{"unknown bench", EvalRequest{Bench: "nope", Pipeline: "SPEC", MemLat: 2}, 400, "bad-request"},
		{"unknown pipeline", EvalRequest{Bench: "perm", Pipeline: "TURBO", MemLat: 2}, 400, "bad-request"},
		{"bad mem_lat", EvalRequest{Bench: "perm", Pipeline: "SPEC", MemLat: 3}, 400, "bad-request"},
		{"bad exec", EvalRequest{Bench: "perm", Pipeline: "SPEC", MemLat: 2, Exec: "jit"}, 400, "bad-request"},
		{"negative fuel", EvalRequest{Bench: "perm", Pipeline: "SPEC", MemLat: 2, Fuel: -1}, 400, "bad-request"},
		{"negative deadline", EvalRequest{Bench: "perm", Pipeline: "SPEC", MemLat: 2, DeadlineMS: -1}, 400, "bad-request"},
		{"oversized source", EvalRequest{Source: strings.Repeat("x", 300), Pipeline: "SPEC", MemLat: 2}, 413, "too-large"},
		// Bodies past the read bound are still too large, not malformed.
		{"5,000-byte source", EvalRequest{Source: strings.Repeat("x", 5_000), Pipeline: "SPEC", MemLat: 2}, 413, "too-large"},
		{"100,000-byte source", EvalRequest{Source: strings.Repeat("x", 100_000), Pipeline: "SPEC", MemLat: 2}, 413, "too-large"},
		{"uncompilable source", EvalRequest{Source: "int main( {", Pipeline: "SPEC", MemLat: 2}, 422, "invalid-source"},
	}
	for _, tc := range cases {
		status, _, resp := postEval(t, ts.URL, tc.req)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%+v)", tc.name, status, tc.status, resp.Error)
			continue
		}
		if resp.Error == nil || resp.Error.Class != tc.class {
			t.Errorf("%s: error %+v, want class %q", tc.name, resp.Error, tc.class)
		}
	}

	// Case-insensitive pipeline names are accepted.
	if status, _, resp := postEval(t, ts.URL, EvalRequest{Bench: "perm", Pipeline: "spec", MemLat: 2}); status != 200 {
		t.Errorf("lower-case pipeline: status %d (%+v)", status, resp.Error)
	}
}

// loopSource never terminates: only a budget or a cancellation stops it.
const loopSource = `
void main() {
	int i = 0;
	while (1) {
		i = i + 1;
	}
}
`

// TestEvalBudgets pins the budget taxonomy: a starved fuel budget is the
// client's fault (422, class fuel, cell-attributed), a starved deadline a
// 504 — typed failures, never hangs or crashes.
func TestEvalBudgets(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, _, resp := postEval(t, ts.URL, EvalRequest{Bench: "perm", Pipeline: "SPEC", MemLat: 2, Fuel: 10})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("starved fuel: status %d (%+v)", status, resp.Error)
	}
	if resp.Error == nil || resp.Error.Class != "fuel" {
		t.Fatalf("starved fuel: error %+v, want class fuel", resp.Error)
	}
	if resp.Error.Cell == "" || !strings.HasPrefix(resp.Error.Cell, "perm/SPEC/") {
		t.Fatalf("starved fuel: cell %q not attributed", resp.Error.Cell)
	}

	// A nonterminating program makes the deadline test deterministic: only
	// the wall-clock budget can stop it (the fuel cap would take far
	// longer), so the response must be a typed 504 — never a hang.
	status, _, resp = postEval(t, ts.URL, EvalRequest{Source: loopSource, Pipeline: "NAIVE", MemLat: 2, DeadlineMS: 100})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("nonterminating program: status %d (%+v)", status, resp.Error)
	}
	if resp.Error == nil || resp.Error.Class != "deadline" {
		t.Fatalf("nonterminating program: error %+v, want class deadline", resp.Error)
	}
}

// TestEvalSourceLimitIsSourceBytes pins that -max-source-bytes bounds the
// source, not its JSON encoding: a source within the limit whose escapes
// (newlines, and "<" as \u003c) take more than 4 KiB beyond it evaluates.
func TestEvalSourceLimitIsSourceBytes(t *testing.T) {
	const limit = 8192
	_, ts := newTestServer(t, Config{MaxSourceBytes: limit})
	src := "void main() {\n\tint i = 0;\n\tif (i < 1) {\n\t\ti = 1;\n\t}\n" +
		strings.Repeat("\n", 8_000) + "}\n"
	if len(src) > limit {
		t.Fatalf("source is %d bytes, over the %d limit", len(src), limit)
	}
	status, _, resp := postEval(t, ts.URL, EvalRequest{Source: src, Pipeline: "NAIVE", MemLat: 2})
	if status != http.StatusOK {
		t.Fatalf("%d-byte source under a %d-byte limit: status %d (%+v)", len(src), limit, status, resp.Error)
	}
}

// TestAbandonedRequestFreesSlot pins one computation per request, on the
// request's own context: a client that gives up on a nonterminating
// program cancels its computation, which frees the only admission slot
// long before the fuel cap or the deadline would, and is counted once.
func TestAbandonedRequestFreesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, DeadlineCap: 20 * time.Second})
	body, err := json.Marshal(EvalRequest{Source: loopSource, Pipeline: "NAIVE", MemLat: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/eval", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	for s.adm.Inflight() == 0 {
		select {
		case err := <-done:
			t.Fatalf("request finished before it held the slot: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request answered")
	}
	gaveUp := time.Now()
	for s.adm.Inflight() != 0 {
		if time.Since(gaveUp) > 2*time.Second {
			t.Fatalf("slot still held %v after the client gave up", time.Since(gaveUp))
		}
		time.Sleep(time.Millisecond)
	}
	m := s.Snapshot()
	if m.Server.Evals != 1 || m.Server.EvalErrors != 1 || m.Degradation.DeadlineExceeded != 1 {
		t.Fatalf("server %+v, degradation %+v; want the request counted once as a deadline failure", m.Server, m.Degradation.Resilience)
	}
}

// TestRecoverEscapedPanic pins the last-resort recover of /v1/eval and
// /v1/report. A flip fault at offset math.MinInt64 panics in the runner's
// own frame, outside every cell boundary: Trace.FlipByte negates the
// offset, which overflows. ParsePlan never deals such an offset, so only a
// test plan reaches this. Each request answers a typed 500 panic naming its
// cell and counts one cell failure and one cell panic.
func TestRecoverEscapedPanic(t *testing.T) {
	plan := &resilience.FaultPlan{Cells: map[string]resilience.Fault{
		"perm/NAIVE/m0": {Kind: resilience.FaultFlipTrace, N: math.MinInt64},
	}}
	s, ts := newTestServer(t, Config{Inject: plan})
	for i, tc := range []struct{ method, path, body, cell string }{
		{http.MethodPost, "/v1/eval", `{"bench":"perm","pipeline":"NAIVE","mem_lat":2}`, "perm/NAIVE/m2"},
		{http.MethodGet, "/v1/report?bench=perm&only=fig62", "", "report/fig62/m0"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		var out evalResp
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode response: %v", tc.path, err)
		}
		if resp.StatusCode != http.StatusInternalServerError || out.Error == nil ||
			out.Error.Class != "panic" || out.Error.Cell != tc.cell {
			t.Fatalf("%s: status %d, error %+v; want 500 panic naming %s", tc.path, resp.StatusCode, out.Error, tc.cell)
		}
		n := int64(i + 1)
		if m := s.Snapshot(); m.Server.EvalErrors != n || m.Degradation.CellFailures != n || m.Degradation.CellPanics != n {
			t.Fatalf("%s: server %+v, degradation %+v; want %d of eval_errors, cell_failures and cell_panics",
				tc.path, m.Server, m.Degradation.Resilience, n)
		}
	}
}

// TestEvalLint runs the verifier battery through the service: a suite
// program lints clean, with the findings array present and empty.
func TestEvalLint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, resp := postEval(t, ts.URL, EvalRequest{Bench: "perm", Pipeline: "SPEC", MemLat: 2, Lint: true})
	if status != http.StatusOK {
		t.Fatalf("status %d (%+v)", status, resp.Error)
	}
	var res EvalResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.LintClean == nil || !*res.LintClean {
		t.Fatalf("lint_clean %v, want true", res.LintClean)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("findings %v, want none", res.Findings)
	}
}

// TestEvalLintHonorsFuel pins that a lint request whose budget cannot
// carry every lint cell fails typed instead of answering lint_clean: fft's
// base program runs 49,574 ops, so the NAIVE cell measures under 60,000,
// but its SPEC programs run 71,644 and both SPEC lint cells are skipped.
func TestEvalLintHonorsFuel(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, _, resp := postEval(t, ts.URL, EvalRequest{Bench: "fft", Pipeline: "NAIVE", MemLat: 2, Lint: true, Fuel: 60_000})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%+v), want 422", status, resp.Error)
	}
	if resp.Error == nil || resp.Error.Class != "fuel" || resp.Error.Cell != "lint/SPEC/m2" {
		t.Fatalf("error %+v, want class fuel naming lint cell lint/SPEC/m2", resp.Error)
	}
	// The failed lint step counts like a failed runner cell.
	if d := s.Snapshot().Degradation; d.CellFailures != 1 || d.FuelExhausted != 1 {
		t.Fatalf("degradation %+v, want cell_failures 1 and fuel_exhausted 1", d.Resilience)
	}
	// Without lint the same budget measures the cell.
	if status, _, resp := postEval(t, ts.URL, EvalRequest{Bench: "fft", Pipeline: "NAIVE", MemLat: 2, Fuel: 60_000}); status != http.StatusOK {
		t.Fatalf("without lint: status %d (%+v)", status, resp.Error)
	}
}

// TestLintHonorsDeadline pins that the request's context reaches every
// lint interpretation: an expired context fails the lint step with a 504
// deadline naming the first lint cell, with no wall-clock race (the
// context is expired before the battery starts).
func TestLintHonorsDeadline(t *testing.T) {
	s := New(Config{})
	p, apiErr := s.plan(&EvalRequest{Bench: "queen", Pipeline: "NAIVE", MemLat: 2, Lint: true})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := &EvalResult{}
	err := s.lint(ctx, p, res)
	if err == nil {
		t.Fatal("lint under an expired context succeeded")
	}
	e := errorFor(err)
	if e.Status != http.StatusGatewayTimeout || e.Class != "deadline" || e.Cell != "lint/NAIVE/m2" {
		t.Fatalf("error %+v, want 504 deadline naming lint cell lint/NAIVE/m2", e)
	}
	if res.LintClean != nil {
		t.Fatalf("lint_clean set on a failed battery")
	}
}

// TestLintDeadlineIsCounted pins that a lint step failing on its deadline
// counts in the request's degradation stats like a runner cell of that
// class. A warm store serves the cell without reading the context, so under
// an already-expired context only the lint step fails: no wall-clock race.
func TestLintDeadlineIsCounted(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st})
	req := EvalRequest{Bench: "queen", Pipeline: "NAIVE", MemLat: 2}
	p, apiErr := s.plan(&req)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if _, _, err := s.evaluate(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	req.Lint = true
	if p, apiErr = s.plan(&req); apiErr != nil {
		t.Fatal(apiErr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, stats, err := s.evaluate(ctx, p)
	if e := errorFor(err); e.Class != "deadline" || e.Cell != "lint/NAIVE/m2" {
		t.Fatalf("error %+v, want deadline naming lint cell lint/NAIVE/m2", e)
	}
	if want := (exper.Resilience{CellFailures: 1, DeadlineExceeded: 1}); stats.Resilience != want {
		t.Fatalf("stats %+v, want %+v", stats.Resilience, want)
	}
	if sst := st.Stats(); sst.Hits != 2 {
		t.Fatalf("store %+v, want the cell served warm (2 hits)", sst)
	}
}

// TestReportMatchesBatch pins the service's core determinism claim: the
// /v1/report document is byte-identical to the in-process renderers —
// the same bytes spdbench writes to stdout.
func TestReportMatchesBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var want bytes.Buffer
	r := exper.New()
	r.Par = 1
	exper.RenderTable61(&want)
	fmt.Fprintln(&want)
	exper.RenderTable62(&want, r.Benchmarks)
	fmt.Fprintln(&want)
	for _, stream := range []func(io.Writer) error{
		func(w io.Writer) error { return r.StreamTable63(w) },
		func(w io.Writer) error { return r.StreamFigure62(w) },
		func(w io.Writer) error { return r.StreamFigure63(w) },
		func(w io.Writer) error { return r.StreamFigure64(w) },
	} {
		if err := stream(&want); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&want)
	}

	status, hdr, got := get(t, ts.URL+"/v1/report")
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !bytes.Equal(want.Bytes(), got) {
		t.Fatalf("report differs from batch renderers (%d vs %d bytes)", want.Len(), len(got))
	}

	// Section selection: only=table61 is exactly that table.
	var t61 bytes.Buffer
	exper.RenderTable61(&t61)
	fmt.Fprintln(&t61)
	status, _, got = get(t, ts.URL+"/v1/report?only=table61")
	if status != http.StatusOK || !bytes.Equal(t61.Bytes(), got) {
		t.Fatalf("only=table61: status %d, %d bytes (want %d)", status, len(got), t61.Len())
	}

	// Bad parameters are typed 400s.
	// The extras spdbench runs under -only are not sections of the report.
	for _, only := range []string{"fig99", "ext", "overhead"} {
		status, _, body := get(t, ts.URL+"/v1/report?only="+only)
		var e struct {
			Error apiError `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("unknown section %q (want table61, table62, table63, fig62, fig63 or fig64)", only)
		if status != http.StatusBadRequest || e.Error.Msg != want {
			t.Fatalf("only=%s: status %d, message %q; want 400, %q", only, status, e.Error.Msg, want)
		}
	}
	if status, _, _ = get(t, ts.URL+"/v1/report?bench=nope"); status != http.StatusBadRequest {
		t.Fatalf("bench=nope: status %d", status)
	}
	if status, _, _ = get(t, ts.URL+"/v1/report?exec=jit"); status != http.StatusBadRequest {
		t.Fatalf("exec=jit: status %d", status)
	}
}

// TestReadyzReadsStoreFromDisk pins that /readyz reads its store probe
// back from disk: with every disk read armed to fault once, the first
// /readyz is not ready and the second, its fault spent, is.
func TestReadyzReadsStoreFromDisk(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.ArmIOFaults(1, 1)
	_, ts := newTestServer(t, Config{Store: st})
	if status, _, body := get(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with the probe's disk read faulted: %d %q", status, body)
	}
	if status, _, body := get(t, ts.URL+"/readyz"); status != 200 || string(body) != "ready\n" {
		t.Fatalf("readyz after the fault was spent: %d %q", status, body)
	}
	if s := st.Stats(); s.IOShortReads+s.IOOpenErrors != 1 || s.Hits != 1 || s.BytesRead == 0 {
		t.Errorf("store stats %+v; want one injected fault, then one disk hit", s)
	}
}

// TestLifecycle pins the health endpoints and the drain ladder: /healthz is
// unconditional liveness, /readyz flips to 503 when draining, Drain waits
// for in-flight requests and new ones are rejected with 503 + Retry-After.
func TestLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Store: st, DrainTimeout: 10 * time.Second})

	if status, _, body := get(t, ts.URL+"/healthz"); status != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", status, body)
	}
	if status, _, body := get(t, ts.URL+"/readyz"); status != 200 || string(body) != "ready\n" {
		t.Fatalf("readyz: %d %q", status, body)
	}

	// Register a synthetic in-flight request, then drain: Drain must block
	// on it, new requests must bounce with 503 + Retry-After, and /healthz
	// must keep answering (liveness is not readiness).
	rec := httptest.NewRecorder()
	done, ok := s.begin(rec)
	if !ok {
		t.Fatal("begin refused before drain")
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	status, hdr, resp := postEval(t, ts.URL, EvalRequest{Bench: "perm", Pipeline: "SPEC", MemLat: 2})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("eval during drain: status %d", status)
	}
	if resp.Error == nil || resp.Error.Class != "draining" || hdr.Get("Retry-After") == "" {
		t.Fatalf("eval during drain: %+v, Retry-After %q", resp.Error, hdr.Get("Retry-After"))
	}
	if status, _, body := get(t, ts.URL+"/readyz"); status != http.StatusServiceUnavailable || string(body) != "draining\n" {
		t.Fatalf("readyz during drain: %d %q", status, body)
	}
	if status, _, _ := get(t, ts.URL+"/healthz"); status != 200 {
		t.Fatalf("healthz during drain: %d", status)
	}
	if status, _, _ := get(t, ts.URL+"/metrics"); status != 200 {
		t.Fatalf("metrics during drain: %d", status)
	}

	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	done()
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	m := s.Snapshot()
	if m.Server.DrainRejections == 0 || !m.Server.Draining {
		t.Fatalf("metrics after drain: %+v", m.Server)
	}
}

// TestDrainTimeout pins the bounded half of the drain contract: a request
// that never finishes cannot hold shutdown hostage past DrainTimeout.
func TestDrainTimeout(t *testing.T) {
	s, _ := newTestServer(t, Config{DrainTimeout: 20 * time.Millisecond})
	done, ok := s.begin(httptest.NewRecorder())
	if !ok {
		t.Fatal("begin refused")
	}
	defer done() // never called before the timeout: the request "hangs"
	start := time.Now()
	if err := s.Drain(context.Background()); err == nil {
		t.Fatal("Drain returned nil with a hung request")
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("Drain took %v, want ~DrainTimeout", since)
	}
}

// TestMetricsCountTierUps checks /metrics reports adaptive-tiering
// promotions, which happen in the shared compiled-code caches rather than in
// any request's private engine.
func TestMetricsCountTierUps(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, _, resp := postEval(t, ts.URL, EvalRequest{Bench: "perm", Pipeline: "SPEC", MemLat: 2, Exec: "native"})
	if status != http.StatusOK {
		t.Fatalf("status %d (%+v)", status, resp.Error)
	}
	if m := s.Snapshot(); m.Degradation.TierUps <= 0 {
		t.Fatalf("degradation.tier_ups = %d after a native perm request, want > 0", m.Degradation.TierUps)
	}
}

// TestIdenticalRequestsEachCompute pins one computation per request:
// identical concurrent requests queued on one slot each compute and answer
// the same result bytes, and no response is marked as shared.
func TestIdenticalRequestsEachCompute(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	const n = 6
	body, err := json.Marshal(EvalRequest{Bench: "fft", Pipeline: "SPEC", MemLat: 2})
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(body))
			if err != nil {
				replies <- reply{err: err}
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			replies <- reply{resp.StatusCode, b, err}
		}()
	}
	var first json.RawMessage
	for i := 0; i < n; i++ {
		r := <-replies
		if r.err != nil {
			t.Fatal(r.err)
		}
		var resp struct {
			Result json.RawMessage            `json:"result"`
			Stats  map[string]json.RawMessage `json:"stats"`
		}
		if err := json.Unmarshal(r.body, &resp); err != nil {
			t.Fatal(err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.body)
		}
		if _, ok := resp.Stats["deduped"]; ok {
			t.Fatalf("stats carry deduped: %s", r.body)
		}
		if first == nil {
			first = resp.Result
		} else if !bytes.Equal(first, resp.Result) {
			t.Fatalf("identical requests answered different results:\n%s\n%s", first, resp.Result)
		}
	}
	if m := s.Snapshot(); m.Server.Evals != n || m.Server.EvalErrors != 0 {
		t.Fatalf("server %+v, want %d evals and no errors", m.Server, n)
	}
}

// keyPaths returns the sorted dotted paths of every scalar in a JSON object.
func keyPaths(t *testing.T, data []byte) []string {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var paths []string
	var walk func(prefix string, v map[string]any)
	walk = func(prefix string, v map[string]any) {
		for k, x := range v {
			if m, ok := x.(map[string]any); ok {
				walk(prefix+k+".", m)
			} else {
				paths = append(paths, prefix+k)
			}
		}
	}
	walk("", doc)
	sort.Strings(paths)
	return paths
}

// TestStatsAndMetricsSchema pins the key sets of /v1/eval's stats and of
// /metrics, the documents clients and the CI smoke jobs read.
func TestStatsAndMetricsSchema(t *testing.T) {
	degradation := []string{
		"bcode_fallbacks", "cell_failures", "cell_panics", "deadline_exceeded", "faults_injected",
		"fuel_exhausted", "interp_fallbacks", "ncode_fallbacks", "trace_recaptures",
	}
	prefixed := func(prefix string, keys ...string) []string {
		out := make([]string, len(keys))
		for i, k := range keys {
			out[i] = prefix + k
		}
		return out
	}
	wantStats := append([]string{"elapsed_ms", "exec", "fuel"}, degradation...)
	wantMetrics := slices.Concat(
		prefixed("cache.", "bcode_len", "compiled", "evictions", "hits", "ncode_len"),
		prefixed("degradation.", append(slices.Clone(degradation), "tier_ups")...),
		prefixed("server.", "admission_rejections", "drain_rejections", "draining",
			"eval_errors", "evals", "inflight", "queue_depth", "reports", "requests"),
	)
	wantStore := prefixed("store.", "bytes_read", "bytes_written", "corrupt_dropped", "hits",
		"io_open_errors", "io_short_reads", "misses", "puts")
	sort.Strings(wantStats)
	sort.Strings(wantMetrics)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{}, {Store: st}} {
		_, ts := newTestServer(t, cfg)
		body, err := json.Marshal(EvalRequest{Bench: "fft", Pipeline: "NAIVE", MemLat: 2})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eval struct {
			Stats json.RawMessage `json:"stats"`
		}
		err = json.NewDecoder(resp.Body).Decode(&eval)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := keyPaths(t, eval.Stats); !slices.Equal(got, wantStats) {
			t.Errorf("/v1/eval stats keys:\ngot  %v\nwant %v", got, wantStats)
		}

		_, _, metrics := get(t, ts.URL+"/metrics")
		want := wantMetrics
		if cfg.Store != nil {
			want = slices.Concat(wantMetrics, wantStore)
		}
		if got := keyPaths(t, metrics); !slices.Equal(got, want) {
			t.Errorf("/metrics keys (store %t):\ngot  %v\nwant %v", cfg.Store != nil, got, want)
		}
	}
}
