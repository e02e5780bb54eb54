package exper_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/resilience"
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
	// A slower memory only makes more dependences worth speculating on
	// (§6.2): no count falls from 2- to 6-cycle memory (smooft's RAW count
	// grows 10 -> 14).
	for _, r := range rows {
		if r.RAW6 < r.RAW2 || r.WAR6 < r.WAR2 || r.WAW6 < r.WAW2 {
			t.Errorf("%s: applications fall from 2- to 6-cycle memory: %+v", r.Program, r)
		}
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
	// Every row orders the disambiguators as their arc sets nest: NAIVE
	// (speedup 0) <= STATIC <= SPEC <= PERFECT. The named exceptions are
	// the §6.3 programs where SPEC beats PERFECT, and the test requires
	// them to stay exceptions.
	specBeatsPerfect := map[string]string{
		"quick": "§6.3: the partition stores alias ~14% of the time, so even " +
			"a perfect static disambiguator keeps the arc; SpD wins the other 86% dynamically",
		"boolmin": "the espresso stand-in's arcs alias on some executions: the same trade as quick",
	}
	for _, r := range rows {
		if r.Static < 0 || r.Spec < r.Static {
			t.Errorf("%s m%d: want 0 <= STATIC <= SPEC, got %.4f, %.4f", r.Program, r.MemLat, r.Static, r.Spec)
		}
		if why, ok := specBeatsPerfect[r.Program]; ok {
			if !(r.Static <= r.Perfect && r.Perfect < r.Spec) {
				t.Errorf("%s m%d: no longer STATIC <= PERFECT < SPEC (%s): %.4f, %.4f, %.4f",
					r.Program, r.MemLat, why, r.Static, r.Perfect, r.Spec)
			}
		} else if r.Perfect < r.Spec {
			t.Errorf("%s m%d: PERFECT (%.4f) below SPEC (%.4f)", r.Program, r.MemLat, r.Perfect, r.Spec)
		}
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
	// §6.3: SpD's extra operations slow a 1-FU machine down on every NRC
	// program, and its shorter paths pay off on an 8-FU one, at both
	// latencies.
	for _, r := range rows {
		if r.Speedup[0] >= 0 || r.Speedup[exper.MaxWidth-1] <= 0 {
			t.Errorf("%s m%d: want a loss at 1 FU and a gain at %d FU, got %.4f and %.4f",
				r.Program, r.MemLat, exper.MaxWidth, r.Speedup[0], r.Speedup[exper.MaxWidth-1])
		}
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

// TestExtensionsHonourBudgets checks that the §7 extension experiments run
// under the runner's fuel and context like every grid cell: a starved
// budget or a cancelled context fails them typed instead of being ignored.
func TestExtensionsHonourBudgets(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		set  func(*exper.Runner)
		want error
	}{
		{"fuel", func(r *exper.Runner) { r.Fuel = 1000 }, resilience.ErrFuelExhausted},
		{"deadline", func(r *exper.Runner) { r.Ctx = cancelled }, resilience.ErrDeadline},
	} {
		r := exper.New()
		r.Benchmarks = []*bench.Benchmark{bench.ByName("quick"), bench.ByName("fft")}
		tc.set(r)
		if rows, err := r.ExtGrafting(6, 5); !errors.Is(err, tc.want) {
			t.Errorf("%s: ExtGrafting returned %d row(s), err %v; want %v", tc.name, len(rows), err, tc.want)
		}
		// The plain SPEC program is the grid's cell, so its failure is
		// recorded like any cell's.
		if st := r.Stats(); st.CellFailures == 0 {
			t.Errorf("%s: no cell failure recorded in %+v", tc.name, st.Resilience)
		}
		if rows, err := r.ExtCombined(6); !errors.Is(err, tc.want) {
			t.Errorf("%s: ExtCombined returned %d row(s), err %v; want %v", tc.name, len(rows), err, tc.want)
		}
	}

	// The grafted preparation is bounded too, even when the plain SPEC cell
	// was prepared before the budget shrank.
	quick := bench.ByName("quick")
	r := exper.New()
	r.Benchmarks = []*bench.Benchmark{quick}
	if _, err := r.Prepared(quick, disamb.Spec, 6); err != nil {
		t.Fatal(err)
	}
	r.Fuel = 1000
	if rows, err := r.ExtGrafting(6, 5); !errors.Is(err, resilience.ErrFuelExhausted) {
		t.Errorf("grafted preparation: ExtGrafting returned %d row(s), err %v; want fuel exhaustion", len(rows), err)
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
