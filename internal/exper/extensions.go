package exper

import (
	"fmt"
	"io"

	"specdis/internal/disamb"
	"specdis/internal/graft"
	"specdis/internal/machine"
	"specdis/internal/spd"
)

// GraftRow is one benchmark's grafting-extension measurement (§7).
type GraftRow struct {
	Program      string
	Grafts       int
	AppsPlain    int
	AppsGrafted  int
	CyclesPlain  int64
	CyclesGrafts int64
}

// SpeedupPct returns the grafted speedup over plain SPEC in percent.
func (r GraftRow) SpeedupPct() float64 {
	if r.CyclesGrafts == 0 {
		return 0
	}
	return 100 * (float64(r.CyclesPlain)/float64(r.CyclesGrafts) - 1)
}

// ExtGrafting measures the §7 grafting extension on the integer benchmarks
// at the given memory latency and width. Both preparations and their timed
// runs take the runner's settings: backend, fuel, context and caches.
func (r *Runner) ExtGrafting(memLat, width int) ([]GraftRow, error) {
	gp := graft.DefaultParams()
	models := []machine.Model{machine.New(width, memLat)}
	var rows []GraftRow
	for _, b := range r.Benchmarks {
		if b.Suite == "NRC" {
			continue // grafting targets the tree-starved integer programs
		}
		plain, err := r.Prepared(b, disamb.Spec, memLat)
		if err != nil {
			return nil, err
		}
		base, err := r.compiled(b)
		if err != nil {
			return nil, err
		}
		o := r.options(disamb.Spec, memLat, r.Exec)
		o.Prog, o.Graft, o.GraftRounds = base.Clone(), &gp, 2
		// Grafting transforms the program before it profiles it, so it
		// cannot share the benchmark's profiling run.
		grafted, err := disamb.PrepareFrom(nil, o)
		if err != nil {
			return nil, err
		}
		rp, err := disamb.Measure(plain, models)
		if err != nil {
			return nil, err
		}
		rg, err := disamb.Measure(grafted, models)
		if err != nil {
			return nil, err
		}
		rows = append(rows, GraftRow{
			Program:      b.Name,
			Grafts:       grafted.Grafts,
			AppsPlain:    len(plain.SpD.Apps),
			AppsGrafted:  len(grafted.SpD.Apps),
			CyclesPlain:  rp.Times[0],
			CyclesGrafts: rg.Times[0],
		})
	}
	return rows, nil
}

// CombinedRow compares one-at-a-time SpD against §7 combined speculation.
type CombinedRow struct {
	Program                    string
	PairsOne, OpsOne           int
	PairsCombined, OpsCombined int
}

// ExtCombined measures combined multi-alias speculation on the NRC
// benchmarks. The combined transform reads the benchmark's shared profiling
// run, the one its SPEC preparation read.
func (r *Runner) ExtCombined(memLat int) ([]CombinedRow, error) {
	var rows []CombinedRow
	for _, b := range r.Benchmarks {
		if b.Suite != "NRC" {
			continue
		}
		one, err := r.Prepared(b, disamb.Spec, memLat)
		if err != nil {
			return nil, err
		}
		base, err := r.compiled(b)
		if err != nil {
			return nil, err
		}
		run, err := r.profiled(b)
		if err != nil {
			return nil, err
		}
		prog := base.Clone()
		if err := run.Profile.AnnotateArcs(prog); err != nil {
			return nil, err
		}
		comb := spd.TransformCombined(prog, run.Profile, r.Params)
		rows = append(rows, CombinedRow{
			Program:       b.Name,
			PairsOne:      one.SpD.RAW,
			OpsOne:        one.SpD.AddedOps,
			PairsCombined: comb.RAW,
			OpsCombined:   comb.AddedOps,
		})
	}
	return rows, nil
}

// RenderExtensions prints both §7 extension experiments.
func RenderExtensions(w io.Writer, grows []GraftRow, crows []CombinedRow) {
	fmt.Fprintln(w, "Extension (§7): grafting before SpD — integer benchmarks, 5 FU / 6-cycle memory")
	fmt.Fprintf(w, "%-10s %7s %10s %12s %12s %9s\n",
		"Program", "grafts", "SpD apps", "plain cyc", "grafted cyc", "speedup")
	for _, r := range grows {
		fmt.Fprintf(w, "%-10s %7d %4d -> %-4d %12d %12d %8.1f%%\n",
			r.Program, r.Grafts, r.AppsPlain, r.AppsGrafted,
			r.CyclesPlain, r.CyclesGrafts, r.SpeedupPct())
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Extension (§7): combined multi-alias speculation — NRC benchmarks")
	fmt.Fprintf(w, "%-10s %26s %26s\n", "Program", "one-at-a-time (pairs,+ops)", "combined (pairs,+ops)")
	for _, r := range crows {
		fmt.Fprintf(w, "%-10s %16d, +%-8d %16d, +%-8d\n",
			r.Program, r.PairsOne, r.OpsOne, r.PairsCombined, r.OpsCombined)
	}
}

// OverheadRow quantifies speculation's dynamic cost for one benchmark: how
// many extra operations the SPEC program executes versus what it commits,
// compared with the NAIVE baseline.
type OverheadRow struct {
	Program       string
	NaiveExecuted int64
	SpecExecuted  int64
	SpecCommitted int64
}

// ExecOverheadPct returns the extra dynamic work SPEC performs over NAIVE.
func (r OverheadRow) ExecOverheadPct() float64 {
	if r.NaiveExecuted == 0 {
		return 0
	}
	return 100 * (float64(r.SpecExecuted)/float64(r.NaiveExecuted) - 1)
}

// WastePct returns the fraction of SPEC's executed operations whose
// write-back was squashed (speculation down the wrong outcome plus ordinary
// guarded-execution waste).
func (r OverheadRow) WastePct() float64 {
	if r.SpecExecuted == 0 {
		return 0
	}
	return 100 * float64(r.SpecExecuted-r.SpecCommitted) / float64(r.SpecExecuted)
}

// DynamicOverhead measures executed-vs-committed dynamic operation counts
// for NAIVE and SPEC at the given memory latency.
func (r *Runner) DynamicOverhead(memLat int) ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, b := range r.Benchmarks {
		nv, err := r.Prepared(b, disamb.Naive, memLat)
		if err != nil {
			return nil, err
		}
		sp, err := r.Prepared(b, disamb.Spec, memLat)
		if err != nil {
			return nil, err
		}
		rn, err := disamb.Measure(nv, []machine.Model{machine.Infinite(memLat)})
		if err != nil {
			return nil, err
		}
		rs, err := disamb.Measure(sp, []machine.Model{machine.Infinite(memLat)})
		if err != nil {
			return nil, err
		}
		rows = append(rows, OverheadRow{
			Program:       b.Name,
			NaiveExecuted: rn.Ops,
			SpecExecuted:  rs.Ops,
			SpecCommitted: rs.Committed,
		})
	}
	return rows, nil
}

// RenderOverhead prints the dynamic-overhead table.
func RenderOverhead(w io.Writer, rows []OverheadRow) {
	fmt.Fprintln(w, "Dynamic operation overhead of speculation (SPEC vs NAIVE)")
	fmt.Fprintf(w, "%-10s %14s %14s %14s %9s %8s\n",
		"Program", "NAIVE exec", "SPEC exec", "SPEC commit", "overhead", "waste")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %14d %14d %14d %8.1f%% %7.1f%%\n",
			r.Program, r.NaiveExecuted, r.SpecExecuted, r.SpecCommitted,
			r.ExecOverheadPct(), r.WastePct())
	}
}
