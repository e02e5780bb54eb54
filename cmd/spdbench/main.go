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
//	                          # (the JSON's store section counts its traffic)
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
	"slices"
	"strings"
	"time"

	"specdis/internal/bench"
	"specdis/internal/exper"
	"specdis/internal/resilience"
	"specdis/internal/sim"
	"specdis/internal/store"
)

// untimed are the reports that compute no cells; every other report's wall
// time goes to the JSON's wall_ms.
var untimed = map[string]bool{"table61": true, "table62": true}

// defaultFuel is the default per-interpretation dynamic-op budget: ten times
// the full evaluation's pinned sim_ops total (46,553,404), so no legitimate
// cell can come near it while a runaway interpretation still dies in
// seconds rather than hanging the grid.
const defaultFuel = 465_534_040

// benchReport is BENCH_spdbench.json: the run's wall times, then the
// runner's counters. exper.Stats and store.Stats carry the counters' JSON
// names; spdbench adds only the wall times and the two flag echoes.
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
	exper.Stats
	// Resilience and Store replace exper.Stats' sections of the same JSON
	// names (encoding/json keeps the shallower field) to lead them with the
	// -inject plan and the -store directory ("" = none).
	Resilience struct {
		Inject string `json:"inject,omitempty"`
		exper.Resilience
	} `json:"resilience"`
	Store struct {
		Dir string `json:"dir,omitempty"`
		store.Stats
		exper.StoreServed
	} `json:"store"`
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
	var names []string
	for _, e := range exper.Reports {
		names = append(names, e.Name)
	}
	only := flag.String("only", "", "run a single experiment: "+strings.Join(names, "|"))
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
	jsonOut := flag.Bool("json", false, "write BENCH_spdbench.json with per-experiment timings")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	verifyFlag := flag.Bool("verify", false, "run the static verifier after every pipeline stage of every cell (debug mode; see internal/verify)")
	flag.Parse()
	if *only != "" && !slices.Contains(names, *only) {
		log.Fatalf("unknown -only experiment %q (want %s)", *only, strings.Join(names, ", "))
	}

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
	mode, ok := sim.ParseExecMode(*execMode)
	if !ok {
		log.Fatalf("unknown -exec mode %q (want bcode, native or tree)", *execMode)
	}
	r.Exec = mode
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
		// The store-level sio kind arms on the artifact store below.
		r.Inject = plan.CellPlan()
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

	out := os.Stdout
	report := benchReport{WallMS: map[string]float64{}, Par: *par}
	start := time.Now()
	for _, e := range exper.Reports {
		if *only != e.Name && (*only != "" || e.Extra) {
			continue
		}
		t0 := time.Now()
		if err := e.Render(r, out); err != nil {
			// Cell failures are recorded in the rows, never returned; an
			// error here is infrastructure (a benchmark fails to compile).
			log.Fatal(err)
		}
		// Extra reports end without a blank line.
		if !e.Extra {
			fmt.Fprintln(out)
		}
		if !untimed[e.Name] {
			report.WallMS[e.Name] = float64(time.Since(t0).Microseconds()) / 1000
		}
	}

	st := r.Stats()
	if *jsonOut {
		total := time.Since(start)
		report.TotalMS = float64(total.Microseconds()) / 1000
		report.Cells = st.Prepares + st.Measures
		if s := total.Seconds(); s > 0 {
			report.CellsPerSec = float64(report.Cells) / s
		}
		report.Stats = st
		report.Resilience.Inject = *inject
		report.Resilience.Resilience = st.Resilience
		if r.Store != nil {
			report.Store.Dir = *storeDir
		}
		report.Store.Stats = r.StoreStats()
		report.Store.StoreServed = st.StoreServed
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile("BENCH_spdbench.json", append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
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
