package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/store"
)

// execConfig describes the engine configuration every eval workload runs:
// spdbench's defaults.
var execConfig = fmt.Sprintf("exec=native tierup=%d trace=replay par=GOMAXPROCS fuel=%d", exper.DefaultTierUp, spdbenchFuel)

// newEvalRunner returns a Runner configured as spdbench with no flags, over
// st when non-nil (spdbench -store).
func newEvalRunner(st *store.Store) *exper.Runner {
	r := exper.New()
	r.Par = 0 // GOMAXPROCS, spdbench's default
	r.Fuel = spdbenchFuel
	r.Store = st
	return r
}

// coldEval is one eval-cold operation: the full evaluation on a fresh
// Runner, checked against the oracle report and the pinned counters. The
// finished Runner is returned for callers that read its cells.
func coldEval(o *oracle) (*exper.Runner, error) {
	r := newEvalRunner(nil)
	var buf bytes.Buffer
	if err := renderEval(r, &buf); err != nil {
		return r, err
	}
	if err := o.checkReport(buf.Bytes()); err != nil {
		return r, err
	}
	st := r.Stats()
	if st.SimOps != pinSimOps || st.Prepares != pinPrepares || st.Measures != pinMeasures || st.TraceCaptures != pinCaptures {
		return r, fmt.Errorf("pinned counters drifted: sim_ops %d prepares %d measures %d captures %d (want %d %d %d %d)",
			st.SimOps, st.Prepares, st.Measures, st.TraceCaptures, pinSimOps, pinPrepares, pinMeasures, pinCaptures)
	}
	return r, nil
}

// warmEval is one eval-warm operation: the full evaluation on a fresh Runner
// over a fresh store.Open of the populated store at dir. A fully warm run
// must serve every cell from the store: no preparation, measurement or
// capture runs, and the pinned sim_ops total still adds up from the stored
// cells. It also returns how long store.Open and the assembly took.
func warmEval(o *oracle, dir string) (r *exper.Runner, open, assemble time.Duration, err error) {
	t0 := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	r = newEvalRunner(st)
	t1 := time.Now()
	var buf bytes.Buffer
	err = renderEval(r, &buf)
	open, assemble = t1.Sub(t0), time.Since(t1)
	if err != nil {
		return r, open, assemble, err
	}
	if err := o.checkReport(buf.Bytes()); err != nil {
		return r, open, assemble, err
	}
	s := r.Stats()
	if s.SimOps != pinSimOps || s.Prepares != 0 || s.Measures != 0 || s.TraceCaptures != 0 {
		return r, open, assemble, fmt.Errorf("warm run not fully warm: sim_ops %d prepares %d measures %d captures %d",
			s.SimOps, s.Prepares, s.Measures, s.TraceCaptures)
	}
	return r, open, assemble, nil
}

// populate runs one cold evaluation with a store at dir (spdbench -store on
// an empty directory) and returns the store's write counters. What it
// stored is checked by every warm evaluation that reads it.
func populate(dir string) (store.Stats, error) {
	st, err := store.Open(dir)
	if err != nil {
		return store.Stats{}, err
	}
	var buf bytes.Buffer
	_ = renderEval(newEvalRunner(st), &buf)
	return st.Stats(), nil
}

func runEvalCold(cfg config, log io.Writer) (*outcome, error) {
	var o *oracle
	// Set-up loads the oracle and runs one evaluation, so the timed window
	// starts on a process whose heap and code are warm. Correctness is
	// checked on the timed operations, where a failure counts.
	setupS, err := timedSetup(cfg.setupReps, func() error {
		var err error
		if o, err = loadOracle(cfg.oracleDir); err != nil {
			return err
		}
		_, _ = coldEval(o)
		return nil
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out := &outcome{metrics: map[string]float64{}, info: map[string]any{"exec": execConfig}}
	if !cfg.traced {
		ls := closedLoop(1, cfg.window, log, func(int) error {
			_, err := coldEval(o)
			return err
		})
		out.finishUntraced(ls, cfg.tailPct, setupS)
		return out, nil
	}

	// Traced run: half the window untraced (the baseline for the tracing
	// overhead, the runtime metrics and the parity reference), half through
	// the traced re-drive of the same cell grid.
	var ref *exper.Runner
	ls := closedLoop(1, cfg.window/2, log, func(int) error {
		r, err := coldEval(o)
		if err == nil && ref == nil {
			ref = r
		}
		return err
	})
	if ref == nil {
		return nil, fmt.Errorf("no untraced evaluation succeeded")
	}
	want, err := gridCells(ref)
	if err != nil {
		return nil, err
	}
	wantStats := ref.Stats()
	d := newRedrive(nil)
	tl := closedLoop(1, cfg.window/2, log, func(int) error {
		got, err := d.grid(bench.All())
		if err != nil {
			return err
		}
		return checkParity(want, wantStats, got)
	})
	m := d.layerMetrics(tl.ops())
	m["exper.cell_failures"] = float64(wantStats.CellFailures)
	m["exec.fallbacks"] = float64(wantStats.NCodeFallbacks + wantStats.BCodeFallbacks)
	out.finishTraced(m, ls, tl, median(ls.lat))
	out.info["spans"] = d.spanCount()
	if err := d.writeSpans(spanPath(cfg)); err != nil {
		return nil, err
	}
	out.info["spans_file"] = spanPath(cfg)
	return out, nil
}

func spanPath(cfg config) string {
	return filepath.Join(cfg.workDir, "perfbench-spans-"+cfg.workload+".jsonl")
}

// gridCells reads every (benchmark, pipeline, latency) cell of the
// evaluation grid back from a finished Runner (cache hits only).
func gridCells(r *exper.Runner) (map[string]*exper.Measurement, error) {
	cells := map[string]*exper.Measurement{}
	for _, b := range r.Benchmarks {
		for _, k := range disamb.Kinds {
			for _, lat := range exper.MemLats {
				m, err := r.Measure(b, k, lat)
				if err != nil {
					return nil, err
				}
				cells[cellKey(b.Name, k.String(), lat)] = m
			}
		}
	}
	return cells, nil
}

// checkParity fails when the traced re-drive did not reproduce the untraced
// evaluation exactly: every cell's cycle counts, and the work counters.
func checkParity(want map[string]*exper.Measurement, ws exper.Stats, got *gridResult) error {
	if len(got.cells) != len(want) {
		return fmt.Errorf("parity: traced pass priced %d cells, untraced %d", len(got.cells), len(want))
	}
	for k, w := range want {
		g, ok := got.cells[k]
		if !ok || g.Inf != w.Inf || g.ByWidth != w.ByWidth || g.Ops != w.Ops {
			return fmt.Errorf("parity: cell %s differs between the traced and untraced passes", k)
		}
	}
	if got.prepares != ws.Prepares || got.measures != ws.Measures || got.captures != ws.TraceCaptures || got.pricedOps != ws.SimOps {
		return fmt.Errorf("parity: traced counters prepares %d measures %d captures %d priced_ops %d, untraced %d %d %d %d",
			got.prepares, got.measures, got.captures, got.pricedOps, ws.Prepares, ws.Measures, ws.TraceCaptures, ws.SimOps)
	}
	return nil
}

func runEvalWarm(cfg config, log io.Writer) (*outcome, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(cfg.workDir, "perfbench-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var (
		o     *oracle
		dir   string
		wrote store.Stats
		rep   int
	)
	// Set-up loads the oracle, populates a fresh store with one cold
	// evaluation and runs one warm evaluation over it.
	setupS, err := timedSetup(cfg.setupReps, func() error {
		var err error
		if o, err = loadOracle(cfg.oracleDir); err != nil {
			return err
		}
		rep++
		dir = filepath.Join(base, fmt.Sprint(rep))
		if wrote, err = populate(dir); err != nil {
			return err
		}
		_, _, _, _ = warmEval(o, dir)
		return nil
	}, func() { os.RemoveAll(dir) })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out := &outcome{metrics: map[string]float64{}, info: map[string]any{"exec": execConfig}}
	if !cfg.traced {
		ls := closedLoop(1, cfg.window, log, func(int) error {
			_, _, _, err := warmEval(o, dir)
			return err
		})
		out.finishUntraced(ls, cfg.tailPct, setupS)
		return out, nil
	}

	// Traced run: 2/5 of the window untraced, 2/5 reading the store and
	// assembly timings, 1/5 timing Store.Get on its own.
	ls := closedLoop(1, cfg.window*2/5, log, func(int) error {
		_, _, _, err := warmEval(o, dir)
		return err
	})
	keys, err := storeKeys(dir)
	if err != nil {
		return nil, err
	}
	var (
		openD, assembleD, getD time.Duration
		reads                  store.Stats
		sweeps                 int64
	)
	tl := closedLoop(1, cfg.window*2/5, log, func(int) error {
		r, open, assemble, err := warmEval(o, dir)
		openD += open
		assembleD += assemble
		if r != nil {
			st := r.StoreStats()
			reads.Hits += st.Hits
			reads.MemHits += st.MemHits
			reads.Misses += st.Misses
			reads.BytesRead += st.BytesRead
			reads.CorruptDropped += st.CorruptDropped
		}
		return err
	})
	// Store.Get on its own: every populated artifact read once through a
	// fresh store, outside any evaluation.
	deadline := time.Now().Add(cfg.window / 5)
	for sweeps == 0 || time.Now().Before(deadline) {
		d, err := getSweep(dir, keys)
		if err != nil {
			return nil, err
		}
		getD += d
		sweeps++
	}
	n := float64(tl.ops())
	m := map[string]float64{
		"store.open_ms":         ms(openD) / n,
		"store.get_ms":          ms(getD) / float64(sweeps),
		"store.hits":            float64(reads.Hits) / n,
		"store.mem_hits":        float64(reads.MemHits) / n,
		"store.misses":          float64(reads.Misses) / n,
		"store.bytes_read":      float64(reads.BytesRead) / n,
		"store.corrupt_dropped": float64(reads.CorruptDropped) / n,
		// Writes happen once, when set-up populates the store.
		"store.puts":          float64(wrote.Puts),
		"store.bytes_written": float64(wrote.BytesWritten),
		"exper.assemble_ms":   ms(assembleD) / n,
	}
	out.finishTraced(m, ls, tl, median(ls.lat))
	out.info["get_sweeps"] = sweeps
	out.info["artifacts"] = len(keys)
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// storeKeys lists the keys of every artifact in the store at dir, from the
// DIR/<hex[:2]>/<hex>.spda file layout.
func storeKeys(dir string) ([]store.Key, error) {
	var keys []store.Key
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".spda") {
			return err
		}
		var k store.Key
		raw, err := hex.DecodeString(strings.TrimSuffix(filepath.Base(path), ".spda"))
		if err != nil || len(raw) != len(k) {
			return fmt.Errorf("store file %s is not named by a key", path)
		}
		copy(k[:], raw)
		keys = append(keys, k)
		return nil
	})
	return keys, err
}

// getSweep reads every key once through a fresh store and returns the time
// the Gets took.
func getSweep(dir string, keys []store.Key) (time.Duration, error) {
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, k := range keys {
		if _, ok := st.Get(k); !ok {
			return 0, fmt.Errorf("store.Get missed populated artifact %s", k)
		}
	}
	return time.Since(t0), nil
}
