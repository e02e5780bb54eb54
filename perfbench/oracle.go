package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/serve"
	"specdis/internal/sim"
)

// The oracle files, generated once by -gen-oracle from the reference
// configuration (tree-walking interpreter, interpreting timed runs) and
// committed:
//
//	report.txt  the full §6 report, byte for byte as spdbench prints it
//	cells.json  the /v1/eval "result" of every (program, pipeline, latency)
//	            cell over bench.Everything(), plus each program's lint
//	            findings
const (
	reportFile = "report.txt"
	cellsFile  = "cells.json"
)

// Pinned work counters of one cold §6 evaluation under the replay backend.
// A drift in any of them fails the operation.
const (
	pinSimOps   = 46_553_404
	pinPrepares = 55
	pinMeasures = 55
	pinCaptures = 33
)

// spdbenchFuel is spdbench's default per-interpretation budget (-fuel).
const spdbenchFuel = 465_534_040

// cellsDoc is the schema of cells.json.
type cellsDoc struct {
	// Cells maps cellKey to the deterministic /v1/eval result of a bench
	// request without lint.
	Cells map[string]serve.EvalResult `json:"cells"`
	// Lint maps a program name to its lint outcome.
	Lint map[string]lintOutcome `json:"lint"`
}

type lintOutcome struct {
	Clean    bool            `json:"clean"`
	Findings []serve.Finding `json:"findings"`
}

// oracle is the loaded oracle files.
type oracle struct {
	report []byte
	cellsDoc
}

func cellKey(benchName, pipeline string, memLat int) string {
	return fmt.Sprintf("%s/%s/%d", benchName, pipeline, memLat)
}

func loadOracle(dir string) (*oracle, error) {
	report, err := os.ReadFile(filepath.Join(dir, reportFile))
	if err != nil {
		return nil, fmt.Errorf("load oracle: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, cellsFile))
	if err != nil {
		return nil, fmt.Errorf("load oracle: %w", err)
	}
	o := &oracle{report: report}
	if err := json.Unmarshal(data, &o.cellsDoc); err != nil {
		return nil, fmt.Errorf("load oracle %s: %w", cellsFile, err)
	}
	for _, b := range bench.Everything() {
		if _, ok := o.Lint[b.Name]; !ok {
			return nil, fmt.Errorf("load oracle: no lint outcome for %s", b.Name)
		}
		for _, k := range disamb.Kinds {
			for _, lat := range exper.MemLats {
				if _, ok := o.Cells[cellKey(b.Name, k.String(), lat)]; !ok {
					return nil, fmt.Errorf("load oracle: no cell %s", cellKey(b.Name, k.String(), lat))
				}
			}
		}
	}
	return o, nil
}

// checkReport compares a rendered evaluation with the oracle report.
func (o *oracle) checkReport(got []byte) error {
	if bytes.Equal(got, o.report) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(o.report) && got[i] == o.report[i] {
		i++
	}
	return fmt.Errorf("report differs from the oracle at byte %d (got %d bytes, want %d)", i, len(got), len(o.report))
}

// expectedResult returns the exact "result" bytes spdd must answer req with.
// b is the program the request names, by bench or by source text.
func (o *oracle) expectedResult(req *serve.EvalRequest, b *bench.Benchmark) ([]byte, error) {
	res, ok := o.Cells[cellKey(b.Name, strings.ToUpper(req.Pipeline), req.MemLat)]
	if !ok {
		return nil, fmt.Errorf("no oracle cell for %s/%s/%d", b.Name, req.Pipeline, req.MemLat)
	}
	if req.Source != "" {
		res.Bench = sourceName(req.Source)
	}
	if req.Lint {
		l := o.Lint[b.Name]
		clean := l.Clean
		res.LintClean = &clean
		res.Findings = l.Findings
	}
	return json.Marshal(res)
}

// sourceName is the name spdd gives a program submitted as source text.
func sourceName(src string) string {
	sum := sha256.Sum256([]byte(src))
	return "src-" + hex.EncodeToString(sum[:4])
}

// renderEval renders the full §6 evaluation exactly as spdbench prints it
// with no flags: Tables 6-1 to 6-3 and Figures 6-2 to 6-4, each followed by
// a blank line.
func renderEval(r *exper.Runner, w *bytes.Buffer) error {
	exper.RenderTable61(w)
	fmt.Fprintln(w)
	exper.RenderTable62(w, r.Benchmarks)
	fmt.Fprintln(w)
	for _, stream := range []func(io.Writer) error{r.StreamTable63, r.StreamFigure62, r.StreamFigure63, r.StreamFigure64} {
		if err := stream(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if fails := r.Failures(); len(fails) > 0 {
		return fmt.Errorf("%d cell(s) failed, first %s: %v", len(fails), fails[0].Cell(), fails[0].Err)
	}
	return nil
}

// referenceRunner is the oracle configuration: the reference tree walker
// pricing every cell by interpretation.
func referenceRunner(fuel int64) *exper.Runner {
	r := exper.New()
	r.Par = runtime.NumCPU()
	r.Exec = sim.ExecTree
	r.TraceReplay = false
	r.Fuel = fuel
	return r
}

// generateOracle writes the oracle files into dir from the reference
// configuration, checking the counters it can pin on the way.
func generateOracle(dir string) error {
	r := referenceRunner(spdbenchFuel)
	var buf bytes.Buffer
	if err := renderEval(r, &buf); err != nil {
		return fmt.Errorf("reference evaluation: %w", err)
	}
	st := r.Stats()
	if st.SimOps != pinSimOps || st.Prepares != pinPrepares || st.Measures != pinMeasures {
		return fmt.Errorf("reference evaluation counters drifted: sim_ops %d prepares %d measures %d", st.SimOps, st.Prepares, st.Measures)
	}

	doc := cellsDoc{Cells: map[string]serve.EvalResult{}, Lint: map[string]lintOutcome{}}
	rc := referenceRunner(serve.DefaultFuelCap)
	rc.Benchmarks = bench.Everything()
	for _, b := range rc.Benchmarks {
		for _, k := range disamb.Kinds {
			for _, lat := range exper.MemLats {
				// The same projection serve's evaluate makes.
				m, err := rc.Measure(b, k, lat)
				if err != nil {
					return err
				}
				sum, err := rc.Summary(b, k, lat)
				if err != nil {
					return err
				}
				doc.Cells[cellKey(b.Name, k.String(), lat)] = serve.EvalResult{
					Bench:         b.Name,
					Pipeline:      k.String(),
					MemLat:        lat,
					CyclesInf:     m.Inf,
					CyclesByWidth: append([]int64(nil), m.ByWidth[:]...),
					Ops:           m.Ops,
					SpD:           serve.SpDCounts{RAW: sum.RAW, WAR: sum.WAR, WAW: sum.WAW},
					BaseOps:       sum.BaseOps,
					AfterOps:      sum.AfterOps,
					Grafts:        sum.Grafts,
				}
			}
		}
		rep, err := disamb.Lint(b.Source, disamb.LintOptions{Exec: sim.ExecTree, MaxOps: serve.DefaultFuelCap})
		if err != nil {
			return fmt.Errorf("lint %s: %w", b.Name, err)
		}
		l := lintOutcome{Clean: rep.Clean()}
		for _, fd := range rep.Findings {
			l.Findings = append(l.Findings, serve.Finding{Check: fd.Check, Func: fd.Func, Tree: fd.Tree, Msg: fd.Msg})
		}
		doc.Lint[b.Name] = l
	}
	cells, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, reportFile), buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, cellsFile), append(cells, '\n'), 0o644)
}
