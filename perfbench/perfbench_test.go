package main

// Tests of the benchmark itself: its checks must fire, every run must emit
// the metrics BENCHMARK.json names, and the request stream must be a pure
// function of the seed. Run from this directory with `go test .`.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/serve"
)

// benchResult is the last line a run prints.
type benchResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]metricOutput `json:"metrics"`
}

// runBench runs perfbench in-process and returns its info line and result.
func runBench(t *testing.T, args ...string) (map[string]any, benchResult) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--workdir", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "# ") {
		t.Fatalf("run %v: want an info line and a result line, got %q", args, stdout.String())
	}
	var info map[string]any
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "# ")), &info); err != nil {
		t.Fatal(err)
	}
	var res benchResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return info, res
}

type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: perfbench reports %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
		}
		for i := 0; i < len(defs) && i < len(listed); i++ {
			if defs[i].name != listed[i].Name || defs[i].unit != listed[i].Unit {
				t.Errorf("%s[%d]: perfbench %s (%s), BENCHMARK.json %s (%s)", kind, i, defs[i].name, defs[i].unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), "eval-cold,eval-warm,serve-cells"; got != want {
		t.Errorf("BENCHMARK.json workloads %s, perfbench %s", got, want)
	}
}

// A short run of every workload, untraced and traced, must be correct and
// emit exactly the metrics BENCHMARK.json names, each with its unit.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkJSON(t)
	for _, w := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			info, res := runBench(t, "--workload", w, "--seed", "3", "--seconds", "1", "--trace", traced, "--oracle", "oracle")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %t, %d of %d failed", w, traced, res.Correct, res.Failed, res.Attempted)
			}
			listed := b.EndToEnd
			if traced == "1" {
				listed = b.PerLayer
			}
			if len(res.Metrics) != len(listed) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json lists %d", w, traced, len(res.Metrics), len(listed))
			}
			for _, m := range listed {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
			}
			for _, k := range []string{"nproc", "gomaxprocs", "cpu_model", "go_version", "gc_percent", "exec"} {
				if _, ok := info[k]; !ok {
					t.Errorf("%s trace %s: info line lacks %s", w, traced, k)
				}
			}
			if w == "serve-cells" {
				if _, ok := info["composition"]; !ok {
					t.Errorf("serve-cells: info line lacks the draw composition")
				}
			}
		}
	}
}

// copyOracle copies the committed oracle into a temporary directory, with
// corrupt applied to the named file's bytes.
func copyOracle(t *testing.T, file string, corrupt func([]byte)) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range []string{reportFile, cellsFile} {
		data, err := os.ReadFile(filepath.Join("oracle", f))
		if err != nil {
			t.Fatal(err)
		}
		if f == file {
			corrupt(data)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// One flipped byte of the oracle report fails every evaluation that is
// checked against it, untraced and traced.
func TestCorruptReportOracleRaisesErrorRate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the eval workloads")
	}
	dir := copyOracle(t, reportFile, func(b []byte) { b[len(b)/2] ^= 0x01 })
	for _, w := range []string{"eval-cold", "eval-warm"} {
		_, res := runBench(t, "--workload", w, "--seconds", "1", "--trace", "0", "--oracle", dir)
		if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
			t.Errorf("%s: correct %t, %d of %d failed; want every op failed", w, res.Correct, res.Failed, res.Attempted)
		}
	}
	_, res := runBench(t, "--workload", "eval-warm", "--seconds", "1", "--trace", "1", "--oracle", dir)
	if er := res.Metrics["error_rate"].Value; res.Correct || er <= 0 {
		t.Errorf("eval-warm traced: correct %t, error_rate %v; want > 0", res.Correct, er)
	}
}

// One changed digit in one cell of cells.json fails the requests for that
// cell, whether they name the program or send its source.
func TestCorruptCellOracleFailsRequests(t *testing.T) {
	dir := copyOracle(t, cellsFile, func(b []byte) {
		i := bytes.Index(b, []byte(`"cycles_inf": `)) + len(`"cycles_inf": `)
		b[i] = '0' + (b[i]-'0'+1)%10
	})
	bad, err := loadOracle(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, err := loadOracle("oracle")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := startServer(1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	d := cellDraw(0) // the first cell in cells.json: adi/NAIVE/2
	if _, err := srv.eval(good, d); err != nil {
		t.Fatalf("good oracle: %v", err)
	}
	if _, err := srv.eval(bad, d); err == nil {
		t.Error("a corrupted cell oracle passed the request")
	}
	d.req.Bench, d.req.Source = "", d.b.Source+sourceSuffix
	if _, err := srv.eval(bad, d); err == nil {
		t.Error("a corrupted cell oracle passed the source-text request")
	}
}

// The traced pass's parity check fails on any drift in a cell's cycles or
// in the pinned counters.
func TestParityCheckFires(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two evaluations")
	}
	o, err := loadOracle("oracle")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := coldEval(o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := gridCells(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := newRedrive(nil).grid(bench.All())
	if err != nil {
		t.Fatal(err)
	}
	ws := ref.Stats()
	if err := checkParity(want, ws, got); err != nil {
		t.Fatalf("traced pass drifted from the untraced evaluation: %v", err)
	}
	cell := cellKey("fft", disamb.Spec.String(), 6)
	got.cells[cell].ByWidth[4]++
	if checkParity(want, ws, got) == nil {
		t.Error("a changed cycle count passed the parity check")
	}
	got.cells[cell].ByWidth[4]--
	got.pricedOps++
	if checkParity(want, ws, got) == nil {
		t.Error("a changed priced-ops counter passed the parity check")
	}
}

func TestStreamIsDeterministicPerSeed(t *testing.T) {
	const n = 3 * 224
	a, b, c := newStream(42), newStream(42), newStream(43)
	same := 0
	for i := int64(0); i < n; i++ {
		x, y, z := a.at(i), b.at(i), c.at(i)
		if x.req != y.req {
			t.Fatalf("request %d differs between two streams of seed 42: %+v vs %+v", i, x.req, y.req)
		}
		if x.req == z.req {
			same++
		}
	}
	if same > n/4 {
		t.Errorf("seeds 42 and 43 agree on %d of %d requests", same, n)
	}
	// Whole decks carry the stated mix exactly; the printed shares are
	// those of the requests sent.
	got := a.composition(n)
	want := map[string]float64{"spec": 1.0 / 4, "lint": 1.0 / 16, "source": 1.0 / 8, "unaffected": 3.0 / 14}
	for k, v := range want {
		if d := got[k] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("composition[%s] = %v, want %v", k, got[k], v)
		}
	}
	// Every cell appears, every program is linted, and a source request
	// names its program by content.
	seen := map[string]bool{}
	linted := map[string]bool{}
	for i := int64(0); i < int64(deckSize()); i++ {
		d := a.at(i)
		seen[cellKey(d.b.Name, d.req.Pipeline, d.req.MemLat)] = true
		if d.req.Lint {
			linted[d.b.Name] = true
		}
		if d.req.Source != "" && (d.req.Bench != "" || !strings.HasPrefix(d.req.Source, d.b.Source)) {
			t.Errorf("request %d: malformed source request %+v", i, d.req)
		}
	}
	if len(seen) != numCells() || len(linted) != len(bench.Everything()) {
		t.Errorf("one deck covers %d cells and lints %d programs, want %d and %d", len(seen), len(linted), numCells(), len(bench.Everything()))
	}
}

// The oracle's expected bytes reproduce what serve encodes: a clean lint
// adds lint_clean and omits findings.
func TestExpectedResultShape(t *testing.T) {
	o, err := loadOracle("oracle")
	if err != nil {
		t.Fatal(err)
	}
	d := cellDraw(5)
	d.req.Lint = true
	got, err := o.expectedResult(&d.req, d.b)
	if err != nil {
		t.Fatal(err)
	}
	var res serve.EvalResult
	if err := json.Unmarshal(got, &res); err != nil {
		t.Fatal(err)
	}
	if res.LintClean == nil || res.Bench != d.b.Name {
		t.Errorf("expected result %s lacks lint_clean or names the wrong program", got)
	}
}
