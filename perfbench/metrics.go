package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; TestMetricCatalogMatchesBenchmarkJSON keeps the
// two in step.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics: what a user of the system sees.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the --trace 1 metrics. Times are self times in ms and counts
// are per operation of the workload's traced pass (one evaluation, or one
// request), unless the name says otherwise.
var perLayer = []metricDef{
	{"error_rate", "ratio"},
	{"tracing.overhead_ms", "ms"},
	{"tracing.spans_per_op", "count"},

	{"lang.ms", "ms"},
	{"lang.bytes", "bytes"},
	{"compile.ms", "ms"},
	{"compile.trees", "count"},
	{"compile.ops", "count"},
	{"compile.arcs", "count"},

	{"alias.ms", "ms"},
	{"alias.arcs_tested", "count"},
	{"alias.removed_ratio", "ratio"},
	{"spd.ms", "ms"},
	{"spd.apps", "count"},
	{"spd.added_ops", "count"},

	{"sim.profile_ms", "ms"},
	{"sim.profile_ops", "count"},
	{"sim.capture_ms", "ms"},
	{"sim.capture_ops", "count"},
	{"sim.replay_ms", "ms"},
	{"sim.priced_ops", "count"},
	{"exec.trees_compiled", "count"},
	{"exec.cache_hit_ratio", "ratio"},
	{"exec.tier_ups", "count"},
	{"exec.fallbacks", "count"},

	{"trace.finish_ms", "ms"},
	{"trace.hist_ms", "ms"},
	{"trace.events", "count"},
	{"trace.bytes", "bytes"},
	{"trace.hist_entries", "count"},
	{"trace.share_ratio", "ratio"},

	{"ir.depgraph_ms", "ms"},
	{"ir.graphs", "count"},
	{"sched.ms", "ms"},
	{"sched.schedules", "count"},
	{"sched.ops_scheduled", "count"},

	{"store.open_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.hits", "count"},
	{"store.mem_hits", "count"},
	{"store.misses", "count"},
	{"store.bytes_read", "bytes"},
	{"store.puts", "count"},
	{"store.bytes_written", "bytes"},
	{"store.corrupt_dropped", "count"},

	{"exper.assemble_ms", "ms"},
	{"exper.prepares", "count"},
	{"exper.measures", "count"},
	{"exper.captures", "count"},
	{"exper.cell_failures", "count"},

	{"serve.server_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.eval_p50_ms", "ms"},
	{"serve.lint_p50_ms", "ms"},
	{"serve.dedup_ratio", "ratio"},
	{"serve.rejections", "count"},
	{"serve.cache_evictions", "count"},

	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
}

// workload is one named benchmark workload.
type workload struct {
	// gcPercent is the GC setting the workload's production entry point
	// uses (spdbench 400, spdd Go's default 100); GOGC overrides it.
	gcPercent int
	// tailPct is the fixed percentile op_tail_ms reports: the highest rung
	// of {50, 75, 90, 99, 99.9} that leaves at least ten samples beyond it
	// at this workload's rate with a 2x margin, and whose run-to-run spread
	// stays within the metric's bound. It is fixed, not chosen per run, so
	// a run that completes a few more or fewer ops never switches rungs.
	// eval-warm steps down to p90: its p99 of a ~1.4 ms operation is set by
	// host interruptions and spread 0.30 over ten runs, against 0.03 for
	// p90.
	tailPct float64
	run     func(cfg config, log io.Writer) (*outcome, error)
}

var workloads = map[string]workload{
	"eval-cold":   {gcPercent: 400, tailPct: 75, run: runEvalCold},
	"eval-warm":   {gcPercent: 400, tailPct: 90, run: runEvalWarm},
	"serve-cells": {gcPercent: 100, tailPct: 99, run: runServeCells},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// loopStats is one closed-loop window's measurements.
type loopStats struct {
	lat      []float64 // per completed op, ms, in completion order per client
	failed   int64
	elapsed  time.Duration
	cpu      time.Duration // process user+sys CPU over the window
	peakHeap uint64        // bytes, see heapSampler.stop
	alloc    uint64        // heap bytes allocated over the window
	gcCPU    float64       // fraction of process CPU spent in GC
}

func (s *loopStats) ops() int64 { return int64(len(s.lat)) }

// endToEndMetrics derives the user-visible metrics of a window.
func (s *loopStats) endToEndMetrics(tailPct float64) (map[string]float64, map[string]any) {
	sorted := append([]float64(nil), s.lat...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	m := map[string]float64{
		"op_p50_ms":    percentile(sorted, 50),
		"op_tail_ms":   percentile(sorted, tailPct),
		"peak_heap_mb": float64(s.peakHeap) / (1 << 20),
	}
	if n > 0 {
		m["ops_per_s"] = n / s.elapsed.Seconds()
		m["cpu_ms_per_op"] = float64(s.cpu.Microseconds()) / 1000 / n
	}
	info := map[string]any{
		"ops":             len(sorted),
		"op_tail_pct":     tailPct,
		"op_tail_beyond":  int(n - math.Ceil(tailPct/100*n)),
		"window_s":        s.elapsed.Seconds(),
		"error_rate":      s.errorRate(),
		"alloc_mb_per_op": s.allocPerOp(),
		"gc_cpu_fraction": s.gcCPU,
		"op_max_ms":       percentile(sorted, 100),
		"peak_heap":       "median over whole seconds of the per-second peak of " + heapMetric + ", sampled every 2ms",
	}
	return m, info
}

// finishUntraced records an untraced run's end-to-end metrics in out.
func (out *outcome) finishUntraced(ls *loopStats, tailPct, setupS float64) {
	m, info := ls.endToEndMetrics(tailPct)
	m["setup_s"] = setupS
	out.metrics, out.attempted, out.failed = m, ls.ops(), ls.failed
	for k, v := range info {
		out.info[k] = v
	}
}

// finishTraced records a traced run's per-layer metrics m in out, adding
// what every workload reports the same way: the runtime metrics of the
// untraced part ls, the error rate over both parts and the tracing
// overhead, the traced part tl's median op time minus untracedMS.
func (out *outcome) finishTraced(m map[string]float64, ls, tl *loopStats, untracedMS float64) {
	m["runtime.gc_cpu_fraction"] = ls.gcCPU
	m["runtime.alloc_mb_per_op"] = ls.allocPerOp()
	m["tracing.overhead_ms"] = median(tl.lat) - untracedMS
	out.attempted = ls.ops() + tl.ops()
	out.failed = ls.failed + tl.failed
	m["error_rate"] = float64(out.failed) / float64(out.attempted)
	out.metrics = m
	out.info["untraced_ops"] = ls.ops()
	out.info["traced_ops"] = tl.ops()
}

func (s *loopStats) errorRate() float64 {
	attempted := s.ops()
	if attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(attempted)
}

func (s *loopStats) allocPerOp() float64 {
	if len(s.lat) == 0 {
		return 0
	}
	return float64(s.alloc) / (1 << 20) / float64(len(s.lat))
}

// closedLoop runs op from clients goroutines, each issuing its next op only
// after the previous one completed, until window has passed; ops in flight
// at the deadline finish and count. An op returning an error counts as
// failed (its latency still counts: the client waited for it); the first
// few errors are logged.
func closedLoop(clients int, window time.Duration, log io.Writer, op func(client int) error) *loopStats {
	st := &loopStats{}
	// Start every window from a collected heap, so garbage left by set-up
	// or an earlier phase neither inflates peak_heap_mb nor lands its
	// collection inside the window.
	runtime.GC()
	rt0 := readRuntime()
	cpu0 := processCPU()
	sampler := startHeapSampler()
	start := time.Now()
	deadline := start.Add(window)

	var (
		mu     sync.Mutex
		failed atomic.Int64
		logged atomic.Int64
		wg     sync.WaitGroup
		perCli = make([][]float64, clients)
	)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				err := op(c)
				d := time.Since(t0)
				perCli[c] = append(perCli[c], float64(d.Nanoseconds())/1e6)
				if err != nil {
					failed.Add(1)
					if logged.Add(1) <= 5 {
						mu.Lock()
						fmt.Fprintf(log, "perfbench: op failed: %v\n", err)
						mu.Unlock()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	st.peakHeap = sampler.stop()
	st.cpu = processCPU() - cpu0
	rt1 := readRuntime()
	for _, l := range perCli {
		st.lat = append(st.lat, l...)
	}
	st.failed = failed.Load()
	st.alloc = rt1.allocBytes - rt0.allocBytes
	if d := rt1.totalCPU - rt0.totalCPU; d > 0 {
		st.gcCPU = (rt1.gcCPU - rt0.gcCPU) / d
	}
	return st
}

// processCPU returns the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample holds the cumulative runtime/metrics counters a window
// differences.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// heapSampler tracks the Go heap's object bytes (live and not yet swept)
// while it runs, every 2 ms, keeping the peak of each whole second.
type heapSampler struct {
	stopc chan struct{}
	done  chan []uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan []uint64, 1)}
	start := time.Now()
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		var peaks []uint64 // per whole second
		var cur uint64
		sec := 0
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if n := int(time.Since(start) / time.Second); n > sec {
				peaks = append(peaks, cur)
				cur, sec = 0, n
			}
			if v := s[0].Value.Uint64(); v > cur {
				cur = v
			}
			select {
			case <-h.stopc:
				if len(peaks) == 0 {
					peaks = append(peaks, cur) // a window shorter than a second
				}
				h.done <- peaks
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the median of the per-second peaks in
// bytes: a heap peak that one collection landing early or late in the
// window does not move.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	peaks := <-h.done
	sort.Slice(peaks, func(i, j int) bool { return peaks[i] < peaks[j] })
	return peaks[len(peaks)/2]
}

// timedSetup runs setup reps times and returns the median wall time in
// seconds. Each repetition after the first undoes the previous one first
// (undo may be nil).
func timedSetup(reps int, setup func() error, undo func()) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		if i > 0 && undo != nil {
			undo()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}
