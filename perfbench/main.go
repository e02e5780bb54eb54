// Command perfbench is the repository benchmark. It drives three workloads
// in-process through the public Go API and checks every operation against
// the committed oracle files in perfbench/oracle:
//
//	eval-cold    one full §6 evaluation on a fresh exper.Runner (spdbench's
//	             defaults, no store), one client
//	eval-warm    the same evaluation on a fresh Runner over a fresh
//	             store.Open of a store populated during set-up
//	serve-cells  POST /v1/eval against an in-process serve.Server on
//	             loopback, nproc clients drawing cells from a seeded generator
//
// Usage (from the repository root; run.sh builds perfbench first):
//
//	bash perfbench/run.sh --workload eval-cold --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload eval-cold --seed 1 --seconds 20 --trace 1
//	go run . -gen-oracle -oracle oracle     # from perfbench/: regenerate oracles
//
// With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
// measures the per-layer metrics (see metrics.go). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Lines before it, prefixed "# ", record the host, runtime configuration and
// workload composition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	// tailPct is the percentile op_tail_ms reports (see workload.tailPct).
	tailPct float64
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	// oracleDir holds the committed oracle files; every set-up repetition
	// loads them afresh.
	oracleDir string
	// workDir holds the run's working state (stores, span files); it is
	// created on demand and the run removes what it created.
	workDir string
}

// outcome is what a workload reports back to run.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	info              map[string]any
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed (only serve-cells draws from it)")
	seconds := fs.Float64("seconds", 20, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	oracleDir := fs.String("oracle", filepath.Join("perfbench", "oracle"), "directory of the committed oracle files")
	workDir := fs.String("workdir", ".bench_build", "working directory for stores and span files")
	genOracle := fs.Bool("gen-oracle", false, "regenerate the oracle files from the reference configuration (-exec=tree -trace=interp) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *genOracle {
		if err := generateOracle(*oracleDir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", *traceFlag)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	gc := applyGC(wl.gcPercent)
	cfg := config{
		workload:  *workload,
		seed:      *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		traced:    *traceFlag == 1,
		tailPct:   wl.tailPct,
		setupReps: 5,
		oracleDir: *oracleDir,
		workDir:   *workDir,
	}
	out, err := wl.run(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	info := hostInfo()
	info["workload"] = cfg.workload
	info["seed"] = cfg.seed
	info["seconds"] = cfg.window.Seconds()
	info["trace"] = *traceFlag
	info["gc_percent"] = gc
	for k, v := range out.info {
		info[k] = v
	}
	line, err := json.Marshal(info)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# %s\n", line)

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	res := struct {
		Correct   bool                    `json:"correct"`
		Attempted int64                   `json:"attempted"`
		Failed    int64                   `json:"failed"`
		Metrics   map[string]metricOutput `json:"metrics"`
	}{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricOutput{},
	}
	for _, d := range defs {
		// A layer the workload never reaches reads 0: its counters and
		// timers genuinely saw no work (eval-warm bypasses execution, only
		// serve-cells has a server).
		res.Metrics[d.name] = metricOutput{Value: out.metrics[d.name], Unit: d.unit}
	}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metricOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// applyGC sets the workload's GC percent unless GOGC is set, and returns the
// setting in force.
func applyGC(percent int) string {
	if v := os.Getenv("GOGC"); v != "" {
		return "GOGC=" + v
	}
	debug.SetGCPercent(percent)
	return fmt.Sprint(percent)
}

// hostInfo names the host and toolchain, as every recorded figure must.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// cpuModel returns the first "model name" line of /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
