// Command spdbench runs the paper's full evaluation and prints every table
// and figure of §6: Table 6-1 (latencies), Table 6-2 (benchmarks), Table 6-3
// (SpD applications by dependence type), Figure 6-2 (speedup over NAIVE on a
// 5-FU machine), Figure 6-3 (SPEC over STATIC vs machine width), and
// Figure 6-4 (code-size increase).
//
// Usage:
//
//	spdbench                  # every table and figure of the paper
//	spdbench -only table63    # one experiment: table61|table62|table63|fig62|fig63|fig64
//	spdbench -only ext        # the §7 extension experiments (grafting, combined)
//	spdbench -bench fft       # restrict to one benchmark
//	spdbench -par 4           # evaluation-cell worker pool width (0 = GOMAXPROCS)
//	spdbench -trace interp    # every cell interprets its own program instead of
//	                          # sharing a trace (checks trace sharing)
//	spdbench -exec bcode      # interpret on the bytecode engine instead of the
//	                          # native tier (the default)
//	spdbench -exec tree       # interpret on the reference tree walker
//	spdbench -tierup N        # adaptive tiering: promote a tree to the native
//	                          # tier at its Nth execution (0 = compile eagerly)
//	spdbench -verify          # static verifier after every pipeline stage
//	spdbench -fuel N          # dynamic-op budget per interpretation
//	spdbench -deadline 30s    # wall-clock deadline for the whole evaluation
//	spdbench -inject PLAN     # seeded fault injection, e.g. seed=42,rate=0.3
//	spdbench -store DIR       # persistent artifact store of prepare summaries
//	                          # and priced cells: repeat runs start warm
//	spdbench -store-stats     # print store hit/miss counters to stderr
//	spdbench -json            # also write BENCH_spdbench.json with timings
//	spdbench -cpuprofile f    # write a CPU profile of the run
//
// A cell failure never kills the run: the failed cell's rows are marked
// FAIL in the report, a failure table goes to stderr, and the exit status
// is 2. Exit status 1 means every cell was recovered by a degradation rung
// (native→bcode or bcode→tree retry, trace recapture, interp fallback) — the
// report is complete but the run was not pristine. Exit status 0 is a clean
// run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"specdis/internal/bench"
	"specdis/internal/exper"
	"specdis/internal/resilience"
	"specdis/internal/sim"
	"specdis/internal/store"
)

// defaultFuel is the default per-interpretation dynamic-op budget: ten times
// the full evaluation's pinned sim_ops total (46,553,404), so no legitimate
// cell can come near it while a runaway interpretation still dies in
// seconds rather than hanging the grid.
const defaultFuel = 465_534_040

// benchReport is the schema of BENCH_spdbench.json: per-experiment wall
// times plus the runner's deduplicated work counters.
type benchReport struct {
	// WallMS maps experiment name to wall-clock milliseconds.
	WallMS map[string]float64 `json:"wall_ms"`
	// TotalMS is the wall time of the whole evaluation.
	TotalMS float64 `json:"total_ms"`
	// Par is the worker-pool width the run used (0 = GOMAXPROCS).
	Par int `json:"par"`
	// Cells counts distinct evaluation cells: prepares + timed measures.
	Cells int64 `json:"cells"`
	// CellsPerSec is Cells / total wall seconds.
	CellsPerSec float64 `json:"cells_per_sec"`
	// Prepares and Measures split Cells: distinct preparation pipeline runs
	// and distinct timed measurement cells actually computed this run. On a
	// fully warm -store run both are zero (the work is accounted under the
	// store section's served counters instead).
	Prepares int64 `json:"prepares"`
	Measures int64 `json:"measures"`
	// ProfileRuns counts profiling interpretations: one shared run per
	// benchmark that a PERFECT or SPEC preparation or an arc-only trace
	// needed (11 on a cold full evaluation, 0 on a fully warm one).
	ProfileRuns int64 `json:"profile_runs"`
	// SimOps is the total number of dynamic operations priced across all
	// timed measurement cells. Deterministic for a given tree (an exact
	// simulation-work count, not a timing), and identical under both
	// -trace backends; CI pins it against the committed baseline.
	SimOps int64 `json:"sim_ops"`
	// Trace describes the trace-capture & replay backend's work.
	Trace traceReport `json:"trace"`
	// Exec describes the execution backend's work.
	Exec execReport `json:"exec"`
	// Resilience describes the fault-tolerance layer's work: failures,
	// degradation rungs taken, and faults injected. All-zero on a clean
	// uninjected run.
	Resilience resilienceReport `json:"resilience"`
	// Store describes the persistent artifact store's work (-store); all
	// zero (with an empty dir) when no store was attached.
	Store storeReport `json:"store"`
}

// traceReport is the "trace" section of BENCH_spdbench.json.
type traceReport struct {
	// Mode is the -trace setting the run used: "replay" or "interp".
	Mode string `json:"mode"`
	// Captures counts distinct execution traces materialized; CacheHits
	// counts trace requests served from the singleflight cache.
	Captures  int64 `json:"captures"`
	CacheHits int64 `json:"cache_hits"`
	// Events and Bytes total the recorded events and the encoded histogram
	// bytes of all captured traces.
	Events int64 `json:"events"`
	Bytes  int64 `json:"bytes"`
	// ReplayCells and InterpCells split the timed measurement cells by
	// trace source: a shared trace, or the cell's own interpretation.
	ReplayCells int64 `json:"replay_cells"`
	InterpCells int64 `json:"interp_cells"`
}

// execReport is the "exec" section of BENCH_spdbench.json.
type execReport struct {
	// Mode is the execution backend the run used: "native" (the default),
	// "bcode" or "tree".
	Mode string `json:"mode"`
	// TreesCompiled counts decision trees lowered to bytecode or native
	// closure chains (a tree promoted by -tierup counts once per tier);
	// Instrs their total instruction words (closure steps for the native
	// tier); CacheHits the compiled-program lookups served from the runner's
	// shared content-addressed caches.
	TreesCompiled int64 `json:"trees_compiled"`
	Instrs        int64 `json:"instrs"`
	CacheHits     int64 `json:"cache_hits"`
	// Steps and Fused describe the native tier's compiled closure chains
	// (zero on the other backends): chain steps after pair fusion, and the
	// superinstructions among them. TierUps counts trees promoted from the
	// bytecode rung by adaptive tiering (-tierup).
	Steps   int64 `json:"steps"`
	Fused   int64 `json:"fused"`
	TierUps int64 `json:"tier_ups"`
}

// resilienceReport is the "resilience" section of BENCH_spdbench.json; see
// docs/RESILIENCE.md for the counter semantics.
type resilienceReport struct {
	// Inject echoes the fault plan dealt to the run ("" = none).
	Inject string `json:"inject,omitempty"`
	// CellFailures counts distinct cells that failed after exhausting the
	// degradation ladder; the next three split them by class.
	CellFailures     int64 `json:"cell_failures"`
	CellPanics       int64 `json:"cell_panics"`
	FuelExhausted    int64 `json:"fuel_exhausted"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// NCodeFallbacks, BCodeFallbacks, TraceRecaptures and InterpFallbacks
	// count degradation rungs taken (whether or not the rung then recovered
	// the cell).
	NCodeFallbacks  int64 `json:"ncode_fallbacks"`
	BCodeFallbacks  int64 `json:"bcode_fallbacks"`
	TraceRecaptures int64 `json:"trace_recaptures"`
	InterpFallbacks int64 `json:"interp_fallbacks"`
	// FaultsInjected counts cells the -inject plan armed.
	FaultsInjected int64 `json:"faults_injected"`
}

// storeReport is the "store" section of BENCH_spdbench.json.
type storeReport struct {
	// Dir is the store directory the run used ("" = no store).
	Dir string `json:"dir,omitempty"`
	// Hits and Misses count artifact lookups by outcome; MemHits is the
	// subset of Hits served from the in-memory LRU without touching disk.
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	MemHits int64 `json:"mem_hits"`
	// Puts counts artifacts persisted; BytesRead and BytesWritten total the
	// artifact payload bytes moved (integrity footers excluded).
	Puts         int64 `json:"puts"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	// Evictions counts in-memory LRU evictions (the on-disk copy remains);
	// CorruptDropped counts artifacts that failed integrity or decode checks
	// and were deleted, each degrading to a recompute.
	Evictions      int64 `json:"evictions"`
	CorruptDropped int64 `json:"corrupt_dropped"`
	// IOShortReads and IOOpenErrors count injected store I/O faults
	// (-inject kinds=sio): short reads degrade into the corruption path,
	// transient open errors into a plain miss with the file intact.
	IOShortReads int64 `json:"io_short_reads"`
	IOOpenErrors int64 `json:"io_open_errors"`
	// PrepsServed and MeasuresServed count whole evaluation cells served
	// from the store instead of computed.
	PrepsServed    int64 `json:"preps_served"`
	MeasuresServed int64 `json:"measures_served"`
}

func main() {
	os.Exit(run())
}

// run is the whole program; keeping it out of main lets the profile and
// deadline defers fire before the process exits with a status code.
func run() int {
	log.SetFlags(0)
	log.SetPrefix("spdbench: ")
	// A short-lived batch process with a small live heap: let the heap grow
	// further between collections instead of spending wall time on GC.
	// GOGC still overrides when set.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	only := flag.String("only", "", "run a single experiment: table61|table62|table63|fig62|fig63|fig64|ext|overhead")
	benchName := flag.String("bench", "", "restrict to one benchmark")
	maxExpansion := flag.Float64("maxexpansion", 0, "override SpD MaxExpansion")
	minGain := flag.Float64("mingain", -1, "override SpD MinGain")
	par := flag.Int("par", 0, "evaluation-cell worker pool width (0 = GOMAXPROCS, 1 = sequential)")
	traceMode := flag.String("trace", "replay", "trace sharing: replay (cells share one recorded trace per executed program) or interp (every measurement cell interprets its own program and prices that run's trace)")
	execMode := flag.String("exec", "native", "execution backend: native (compile trees to closure-threaded chains with fused superinstructions), bcode (compile trees to register-machine bytecode), or tree (reference tree-walking interpreter)")
	tierUp := flag.Int64("tierup", exper.DefaultTierUp, "adaptive tiering under -exec=native: a tree starts on the bytecode rung and is promoted to the native tier at its Nth execution of a run (0 = compile every tree eagerly)")
	fuel := flag.Int64("fuel", defaultFuel, "dynamic-operation budget per interpretation; an exceeding cell fails typed instead of hanging")
	deadline := flag.Duration("deadline", 0, "wall-clock deadline for the whole evaluation (0 = none); expiry fails in-flight cells typed")
	inject := flag.String("inject", "", "seeded fault-injection plan, e.g. seed=42,rate=0.3,kinds=panic+fuel+flip+drop,times=1 (chaos mode)")
	storeDir := flag.String("store", "", "persistent content-addressed artifact store directory: prepare summaries and priced cells are reused across runs")
	storeStats := flag.Bool("store-stats", false, "print artifact-store hit/miss counters to stderr after the run")
	jsonOut := flag.Bool("json", false, "write BENCH_spdbench.json with per-experiment timings")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	verifyFlag := flag.Bool("verify", false, "run the static verifier after every pipeline stage of every cell (debug mode; see internal/verify)")
	flag.Parse()

	r := exper.New()
	r.Par = *par
	r.Verify = *verifyFlag
	r.Fuel = *fuel
	switch *traceMode {
	case "replay":
		r.TraceReplay = true
	case "interp":
		r.TraceReplay = false
	default:
		log.Fatalf("unknown -trace mode %q (want replay or interp)", *traceMode)
	}
	switch *execMode {
	case "bcode":
		r.Exec = sim.ExecBytecode
	case "native":
		r.Exec = sim.ExecNative
	case "tree":
		r.Exec = sim.ExecTree
	default:
		log.Fatalf("unknown -exec mode %q (want bcode, native or tree)", *execMode)
	}
	r.TierUp = *tierUp
	if *deadline > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *deadline)
		defer cancel()
		r.Ctx = ctx
	}
	var plan *resilience.FaultPlan
	if *inject != "" {
		var err error
		plan, err = resilience.ParsePlan(*inject)
		if err != nil {
			log.Fatal(err)
		}
		// The store-level sio kind arms on the artifact store below; only a
		// plan that deals per-cell faults goes to the runner (a non-nil
		// Inject also bypasses the store, which would leave sio nothing to
		// fault).
		if len(plan.CellKinds()) > 0 || plan.Cells != nil {
			r.Inject = plan
		}
	}
	if *storeDir != "" {
		s, err := store.Open(*storeDir)
		if err != nil {
			// A broken store directory must not block the evaluation: warn
			// and run cold.
			log.Printf("warning: -store %s unusable (%v); running without a store", *storeDir, err)
		} else {
			r.Store = s
			if plan.StoreIO() {
				s.ArmIOFaults(plan.Seed, plan.Rate)
			}
		}
	}
	if *benchName != "" {
		b := bench.ByName(*benchName)
		if b == nil {
			log.Fatalf("unknown benchmark %q", *benchName)
		}
		r.Benchmarks = []*bench.Benchmark{b}
	}
	if *maxExpansion > 0 {
		r.Params.MaxExpansion = *maxExpansion
	}
	if *minGain >= 0 {
		r.Params.MinGain = *minGain
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}()
	}

	want := func(name string) bool { return *only == "" || *only == name }
	out := os.Stdout
	report := benchReport{WallMS: map[string]float64{}, Par: *par}
	start := time.Now()
	timed := func(name string, fn func() error) {
		t0 := time.Now()
		if err := fn(); err != nil {
			// Cell failures are recorded in the rows, never returned; an
			// error here is infrastructure (a benchmark fails to compile).
			log.Fatal(err)
		}
		report.WallMS[name] = float64(time.Since(t0).Microseconds()) / 1000
	}

	if want("table61") {
		exper.RenderTable61(out)
		fmt.Fprintln(out)
	}
	if want("table62") {
		exper.RenderTable62(out, r.Benchmarks)
		fmt.Fprintln(out)
	}
	// The four computed reports stream: each row prints the moment its cells
	// resolve, while later cells are still warming on the worker queue.
	if want("table63") {
		timed("table63", func() error {
			if err := r.StreamTable63(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
			return nil
		})
	}
	if want("fig62") {
		timed("fig62", func() error {
			if err := r.StreamFigure62(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
			return nil
		})
	}
	if want("fig63") {
		timed("fig63", func() error {
			if err := r.StreamFigure63(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
			return nil
		})
	}
	if want("fig64") {
		timed("fig64", func() error {
			if err := r.StreamFigure64(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
			return nil
		})
	}
	if *only == "overhead" {
		timed("overhead", func() error {
			rows, err := r.DynamicOverhead(2)
			if err != nil {
				return err
			}
			exper.RenderOverhead(out, rows)
			return nil
		})
	}
	if *only == "ext" {
		timed("ext", func() error {
			grows, err := r.ExtGrafting(6, 5)
			if err != nil {
				return err
			}
			crows, err := r.ExtCombined(6)
			if err != nil {
				return err
			}
			exper.RenderExtensions(out, grows, crows)
			return nil
		})
	}

	st := r.Stats()
	sst := r.StoreStats()
	if *jsonOut {
		total := time.Since(start)
		report.TotalMS = float64(total.Microseconds()) / 1000
		report.Cells = st.Prepares + st.Measures
		if s := total.Seconds(); s > 0 {
			report.CellsPerSec = float64(report.Cells) / s
		}
		report.Prepares = st.Prepares
		report.Measures = st.Measures
		report.ProfileRuns = st.ProfileRuns
		report.SimOps = st.SimOps
		report.Trace = traceReport{
			Mode:        *traceMode,
			Captures:    st.TraceCaptures,
			CacheHits:   st.TraceHits,
			Events:      st.TraceEvents,
			Bytes:       st.TraceBytes,
			ReplayCells: st.ReplayCells,
			InterpCells: st.InterpCells,
		}
		report.Exec = execReport{
			Mode:          *execMode,
			TreesCompiled: st.BCodeCompiled,
			Instrs:        st.BCodeInstrs,
			CacheHits:     st.BCodeCacheHits,
			Steps:         st.NativeSteps,
			Fused:         st.NativeFused,
			TierUps:       st.TierUps,
		}
		report.Resilience = resilienceReport{
			Inject:           *inject,
			CellFailures:     st.CellFailures,
			CellPanics:       st.CellPanics,
			FuelExhausted:    st.FuelExhausted,
			DeadlineExceeded: st.DeadlineExceeded,
			NCodeFallbacks:   st.NCodeFallbacks,
			BCodeFallbacks:   st.BCodeFallbacks,
			TraceRecaptures:  st.TraceRecaptures,
			InterpFallbacks:  st.InterpFallbacks,
			FaultsInjected:   st.FaultsInjected,
		}
		if r.Store != nil {
			report.Store.Dir = *storeDir
		}
		report.Store.Hits = sst.Hits
		report.Store.Misses = sst.Misses
		report.Store.MemHits = sst.MemHits
		report.Store.Puts = sst.Puts
		report.Store.BytesRead = sst.BytesRead
		report.Store.BytesWritten = sst.BytesWritten
		report.Store.Evictions = sst.Evictions
		report.Store.CorruptDropped = sst.CorruptDropped
		report.Store.IOShortReads = sst.IOShortReads
		report.Store.IOOpenErrors = sst.IOOpenErrors
		report.Store.PrepsServed = st.StorePreps
		report.Store.MeasuresServed = st.StoreMeasures
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile("BENCH_spdbench.json", append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	// Store counters go to stderr with everything else diagnostic: stdout
	// must stay byte-identical with and without a store, warm or cold.
	if *storeStats && r.Store != nil {
		fmt.Fprintf(os.Stderr, "spdbench: store %s: %d hit(s) (%d in-memory), %d miss(es), %d put(s), %d B read, %d B written, %d eviction(s), %d corrupt dropped; served %d prep(s), %d measure(s)\n",
			*storeDir, sst.Hits, sst.MemHits, sst.Misses, sst.Puts, sst.BytesRead, sst.BytesWritten,
			sst.Evictions, sst.CorruptDropped, st.StorePreps, st.StoreMeasures)
	}

	// The failure table and degradation summary go to stderr: stdout stays
	// byte-identical across backends whether or not a run degraded.
	if fails := r.Failures(); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "spdbench: %d cell(s) failed:\n", len(fails))
		fmt.Fprintf(os.Stderr, "  %-24s %-10s %-18s %s\n", "CELL", "STAGE", "CLASS", "ERROR")
		for _, ce := range fails {
			fmt.Fprintf(os.Stderr, "  %-24s %-10s %-18s %v\n", ce.Cell(), ce.Stage, ce.Class, ce.Err)
		}
		return 2
	}
	if n := st.NCodeFallbacks + st.BCodeFallbacks + st.TraceRecaptures + st.InterpFallbacks; n > 0 {
		fmt.Fprintf(os.Stderr, "spdbench: degraded but complete: %d native fallback(s), %d bcode fallback(s), %d trace recapture(s), %d interp fallback(s); every cell recovered\n",
			st.NCodeFallbacks, st.BCodeFallbacks, st.TraceRecaptures, st.InterpFallbacks)
		return 1
	}
	return 0
}
