package exper

import (
	"fmt"
	"io"
	"strings"

	"specdis/internal/bench"
	"specdis/internal/machine"
)

// Report is one report of the evaluation, under the name spdbench's -only
// and spdd's /v1/report?only= select it by.
type Report struct {
	Name string
	// Extra marks the reports beyond the paper's six sections (the §7
	// extensions, the dynamic overhead): spdbench runs them only when -only
	// names them, and /v1/report never does.
	Extra  bool
	Render func(r *Runner, w io.Writer) error
}

// Reports are the evaluation's reports in print order: the six sections of
// §6, then the extras.
var Reports = []Report{
	{Name: "table61", Render: func(_ *Runner, w io.Writer) error { RenderTable61(w); return nil }},
	{Name: "table62", Render: func(r *Runner, w io.Writer) error { RenderTable62(w, r.Benchmarks); return nil }},
	{Name: "table63", Render: (*Runner).StreamTable63},
	{Name: "fig62", Render: (*Runner).StreamFigure62},
	{Name: "fig63", Render: (*Runner).StreamFigure63},
	{Name: "fig64", Render: (*Runner).StreamFigure64},
	{Name: "ext", Extra: true, Render: func(r *Runner, w io.Writer) error {
		grows, err := r.ExtGrafting(6, 5)
		if err != nil {
			return err
		}
		crows, err := r.ExtCombined(6)
		if err != nil {
			return err
		}
		RenderExtensions(w, grows, crows)
		return nil
	}},
	{Name: "overhead", Extra: true, Render: func(r *Runner, w io.Writer) error {
		rows, err := r.DynamicOverhead(2)
		if err != nil {
			return err
		}
		RenderOverhead(w, rows)
		return nil
	}},
}

// Each computed report is a header printer and a row printer, driven by a
// streaming renderer on the Runner (StreamX) that prints each row the
// moment its cells resolve, while later cells are still computing on the
// worker queue. The rows themselves are available unrendered from the
// Runner's Table63 and FigureX methods.

// RenderTable62 prints the benchmark listing (Table 6-2).
func RenderTable62(w io.Writer, benches []*bench.Benchmark) {
	fmt.Fprintf(w, "Table 6-2: Benchmark Descriptions\n")
	fmt.Fprintf(w, "%-10s %-9s %6s  %s\n", "Benchmark", "Suite", "Lines", "Description")
	for _, b := range benches {
		fmt.Fprintf(w, "%-10s %-9s %6d  %s\n", b.Name, b.Suite, b.Lines(), b.Desc)
	}
}

// RenderTable61 prints the latency table (Table 6-1).
func RenderTable61(w io.Writer) {
	fmt.Fprintf(w, "Table 6-1: Operation latencies (memory latency 2 or 6)\n")
	fmt.Fprint(w, machine.Describe(2))
}

// ---- Table 6-3 ----------------------------------------------------------

func printTable63Header(w io.Writer) {
	fmt.Fprintf(w, "Table 6-3: Frequency of SpD application by dependence type\n")
	fmt.Fprintf(w, "%-10s | %-17s | %-17s\n", "", "2 Cycle Memory", "6 Cycle Memory")
	fmt.Fprintf(w, "%-10s | %5s %5s %5s | %5s %5s %5s\n",
		"Program", "RAW", "WAR", "WAW", "RAW", "WAR", "WAW")
	fmt.Fprintln(w, strings.Repeat("-", 50))
}

func printTable63Row(w io.Writer, r Table63Row) {
	if r.Fail != "" {
		fmt.Fprintf(w, "%-10s | FAIL(%s)\n", r.Program, r.Fail)
		return
	}
	fmt.Fprintf(w, "%-10s | %5d %5d %5d | %5d %5d %5d\n",
		r.Program, r.RAW2, r.WAR2, r.WAW2, r.RAW6, r.WAR6, r.WAW6)
}

// StreamTable63 computes and prints Table 6-3, emitting each row as soon as
// its cells resolve.
func (r *Runner) StreamTable63(w io.Writer) error {
	printTable63Header(w)
	return r.streamTable63(func(row Table63Row) { printTable63Row(w, row) })
}

// ---- Figure 6-2 ----------------------------------------------------------

func printFigure62Header(w io.Writer) {
	fmt.Fprintf(w, "Figure 6-2: Speedup over the NAIVE disambiguator, %d-FU machine\n", Fig62Width)
	fmt.Fprintf(w, "(speedup = cycles(NAIVE)/cycles(X) - 1)\n")
}

func printFigure62Section(w io.Writer, memLat int) {
	fmt.Fprintf(w, "\n%d Cycle Memory Latency\n", memLat)
	fmt.Fprintf(w, "%-10s %8s %8s %8s\n", "Program", "STATIC", "SPEC", "PERFECT")
}

func printFigure62Row(w io.Writer, r Fig62Row) {
	if r.Fail != "" {
		fmt.Fprintf(w, "%-10s FAIL(%s)\n", r.Program, r.Fail)
		return
	}
	fmt.Fprintf(w, "%-10s %7.1f%% %7.1f%% %7.1f%%\n",
		r.Program, 100*r.Static, 100*r.Spec, 100*r.Perfect)
}

// StreamFigure62 computes and prints Figure 6-2 row by row.
func (r *Runner) StreamFigure62(w io.Writer) error {
	printFigure62Header(w)
	memLat := -1
	return r.streamFigure62(func(row Fig62Row) {
		if row.MemLat != memLat {
			memLat = row.MemLat
			printFigure62Section(w, memLat)
		}
		printFigure62Row(w, row)
	})
}

// ---- Figure 6-3 ----------------------------------------------------------

func printFigure63Header(w io.Writer) {
	fmt.Fprintf(w, "Figure 6-3: Speedup of SPEC over STATIC (NRC benchmarks)\n")
}

func printFigure63Section(w io.Writer, memLat int) {
	fmt.Fprintf(w, "\n%d Cycle Memory Latency (speedup %% per machine width)\n", memLat)
	fmt.Fprintf(w, "%-10s", "Program")
	for wd := 1; wd <= MaxWidth; wd++ {
		fmt.Fprintf(w, " %6dFU", wd)
	}
	fmt.Fprintln(w)
}

func printFigure63Row(w io.Writer, r Fig63Row) {
	if r.Fail != "" {
		fmt.Fprintf(w, "%-10s FAIL(%s)\n", r.Program, r.Fail)
		return
	}
	fmt.Fprintf(w, "%-10s", r.Program)
	for _, s := range r.Speedup {
		fmt.Fprintf(w, " %7.1f%%", 100*s)
	}
	fmt.Fprintln(w)
}

// StreamFigure63 computes and prints Figure 6-3 row by row.
func (r *Runner) StreamFigure63(w io.Writer) error {
	printFigure63Header(w)
	memLat := -1
	return r.streamFigure63(func(row Fig63Row) {
		if row.MemLat != memLat {
			memLat = row.MemLat
			printFigure63Section(w, memLat)
		}
		printFigure63Row(w, row)
	})
}

// ---- Figure 6-4 ----------------------------------------------------------

func printFigure64Header(w io.Writer) {
	fmt.Fprintf(w, "Figure 6-4: Code size increase due to SpD (2-cycle memory)\n")
	fmt.Fprintf(w, "(operations, not VLIW instructions)\n")
	fmt.Fprintf(w, "%-10s %8s %8s %9s\n", "Program", "before", "after", "increase")
}

func printFigure64Row(w io.Writer, r Fig64Row) {
	if r.Fail != "" {
		fmt.Fprintf(w, "%-10s FAIL(%s)\n", r.Program, r.Fail)
		return
	}
	fmt.Fprintf(w, "%-10s %8d %8d %8.1f%%\n",
		r.Program, r.BeforeOps, r.AfterOps, r.IncreasePct)
}

// StreamFigure64 computes and prints Figure 6-4 row by row.
func (r *Runner) StreamFigure64(w io.Writer) error {
	printFigure64Header(w)
	return r.streamFigure64(func(row Fig64Row) { printFigure64Row(w, row) })
}
