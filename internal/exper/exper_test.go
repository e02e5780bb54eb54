package exper_test

import (
	"strings"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
)

// runner is shared by all tests in this package: the cache makes the whole
// file cost roughly one full evaluation.
var runner = exper.New()

func subset() *exper.Runner {
	r := exper.New()
	r.Benchmarks = []*bench.Benchmark{
		bench.ByName("fft"), bench.ByName("quick"), bench.ByName("moment"),
	}
	return r
}

func TestTable63Shape(t *testing.T) {
	rows, err := runner.Table63()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(bench.All())+1 {
		t.Fatalf("got %d rows", len(rows))
	}
	total := rows[len(rows)-1]
	if total.Program != "TOTAL" {
		t.Fatal("missing TOTAL row")
	}
	// The paper's strongest qualitative findings: SpD favours RAW
	// dependences heavily, WAW appears occasionally, WAR never pays off.
	if total.RAW2 == 0 || total.RAW6 == 0 {
		t.Error("no RAW applications at all")
	}
	if total.WAW2 == 0 || total.WAW6 == 0 {
		t.Error("no WAW applications at all")
	}
	if total.WAR2 != 0 || total.WAR6 != 0 {
		t.Errorf("WAR applications should be zero (paper Table 6-3): %+v", total)
	}
	if total.RAW2 <= total.WAW2 || total.RAW6 <= total.WAW6 {
		t.Errorf("RAW should dominate WAW: %+v", total)
	}
	var sum Table63 = rows[:len(rows)-1]
	if sum.raw2() != total.RAW2 || sum.waw6() != total.WAW6 {
		t.Error("TOTAL row does not sum the benchmark rows")
	}
}

type Table63 []exper.Table63Row

func (rs Table63) raw2() int {
	n := 0
	for _, r := range rs {
		n += r.RAW2
	}
	return n
}
func (rs Table63) waw6() int {
	n := 0
	for _, r := range rs {
		n += r.WAW6
	}
	return n
}

func TestFigure62Shape(t *testing.T) {
	rows, err := runner.Figure62()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(bench.All()) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// PERFECT removes a superset of what STATIC removes; with the same
		// scheduler it should never lose to STATIC by more than scheduling
		// noise.
		if r.Perfect < r.Static-0.02 {
			t.Errorf("%s m%d: PERFECT (%.3f) below STATIC (%.3f)", r.Program, r.MemLat, r.Perfect, r.Static)
		}
	}
	// The headline anecdote (§6.3): on quick, SPEC beats PERFECT.
	found := false
	for _, r := range rows {
		if r.Program == "quick" && r.Spec > r.Perfect {
			found = true
		}
	}
	if !found {
		t.Error("quick: SPEC never outperforms PERFECT (paper's Figure 6-2 anecdote)")
	}
}

func TestFigure63Shape(t *testing.T) {
	rows, err := runner.Figure63()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(bench.NRC()) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		for _, b := range bench.NRC() {
			if b.Name == r.Program {
				goto ok
			}
		}
		t.Fatalf("non-NRC program %s in Figure 6-3", r.Program)
	ok:
	}
	// §6.3: SpD slows narrow machines down and pays off on wide ones: at
	// least one benchmark must show a negative at 1 FU and a positive at 8.
	var sawNeg, sawPos bool
	for _, r := range rows {
		if r.Speedup[0] < 0 {
			sawNeg = true
		}
		if r.Speedup[exper.MaxWidth-1] > 0.05 {
			sawPos = true
		}
	}
	if !sawNeg || !sawPos {
		t.Errorf("resource crossover missing: neg@1FU=%v pos@8FU=%v", sawNeg, sawPos)
	}
}

func TestFigure64Shape(t *testing.T) {
	rows, err := runner.Figure64()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(bench.All()) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.AfterOps < r.BeforeOps {
			t.Errorf("%s: SpD shrank the code %d -> %d", r.Program, r.BeforeOps, r.AfterOps)
		}
		if r.IncreasePct < 0 || r.IncreasePct > 100 {
			t.Errorf("%s: unreasonable code growth %.1f%%", r.Program, r.IncreasePct)
		}
	}
}

func TestMeasurementMonotonicInWidth(t *testing.T) {
	r := subset()
	for _, b := range r.Benchmarks {
		for _, kind := range disamb.Kinds {
			m, err := r.Measure(b, kind, 2)
			if err != nil {
				t.Fatal(err)
			}
			for w := 1; w < exper.MaxWidth; w++ {
				if m.ByWidth[w] > m.ByWidth[w-1] {
					t.Errorf("%s/%s: %d FUs slower than %d", b.Name, kind, w+1, w)
				}
			}
			if m.ByWidth[exper.MaxWidth-1] < m.Inf {
				t.Errorf("%s/%s: 8 FUs beat the infinite machine", b.Name, kind)
			}
		}
	}
}

func TestRenderers(t *testing.T) {
	var sb strings.Builder
	exper.RenderTable61(&sb)
	exper.RenderTable62(&sb, bench.All())
	out := sb.String() + renderAll(t, runner)
	for _, want := range []string{
		"Table 6-1", "Table 6-2", "Table 6-3", "Figure 6-2", "Figure 6-3",
		"Figure 6-4", "TOTAL", "espresso", "5-FU machine",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report lacks %q", want)
		}
	}
}

func TestExtensionExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r := exper.New()
	grows, err := r.ExtGrafting(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(grows) == 0 {
		t.Fatal("no grafting rows")
	}
	totalGrafts := 0
	for _, g := range grows {
		totalGrafts += g.Grafts
		if g.AppsGrafted < g.AppsPlain {
			t.Errorf("%s: grafting lost SpD applications (%d -> %d)", g.Program, g.AppsPlain, g.AppsGrafted)
		}
		if g.SpeedupPct() < -10 {
			t.Errorf("%s: grafting slowed the program badly (%.1f%%)", g.Program, g.SpeedupPct())
		}
	}
	if totalGrafts == 0 {
		t.Error("grafting never applied")
	}

	crows, err := r.ExtCombined(6)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, c := range crows {
		covered += c.PairsCombined
		if c.PairsCombined > 0 && c.OpsCombined <= 0 {
			t.Errorf("%s: pairs without ops", c.Program)
		}
	}
	if covered == 0 {
		t.Error("combined speculation never applied on NRC")
	}

	var sb strings.Builder
	exper.RenderExtensions(&sb, grows, crows)
	if !strings.Contains(sb.String(), "grafting") || !strings.Contains(sb.String(), "combined") {
		t.Error("extension rendering incomplete")
	}
}

func TestDynamicOverhead(t *testing.T) {
	r := subset()
	rows, err := r.DynamicOverhead(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(r.Benchmarks) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		if row.SpecExecuted < row.NaiveExecuted {
			t.Errorf("%s: SPEC executes fewer ops than NAIVE (%d < %d)",
				row.Program, row.SpecExecuted, row.NaiveExecuted)
		}
		if row.SpecCommitted > row.SpecExecuted {
			t.Errorf("%s: committed exceeds executed", row.Program)
		}
		if row.WastePct() < 0 || row.WastePct() > 100 {
			t.Errorf("%s: waste %.1f%%", row.Program, row.WastePct())
		}
	}
	var sb strings.Builder
	exper.RenderOverhead(&sb, rows)
	if !strings.Contains(sb.String(), "overhead") {
		t.Error("render incomplete")
	}
}
