// Command spdd is the speculative-disambiguation evaluation daemon: the
// spdbench pipeline — compile → disambiguate → schedule → price — as a
// long-running fault-tolerant HTTP/JSON service. internal/serve implements
// the handlers and the robustness contract (bounded admission, per-request
// budgets, panic isolation on the degradation rungs, graceful drain);
// docs/SERVICE.md is the API reference.
//
// Lifecycle: spdd serves until SIGINT/SIGTERM, then drains — /readyz flips
// to 503 so load balancers stop routing, new requests are rejected with 503
// + Retry-After, in-flight requests run to completion (bounded by
// -drain-timeout) — and exits 0 on a clean drain, 1 otherwise.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"specdis/internal/resilience"
	"specdis/internal/serve"
	"specdis/internal/store"
)

func main() { os.Exit(run()) }

func run() int {
	log.SetFlags(0)
	log.SetPrefix("spdd: ")
	addr := flag.String("addr", "127.0.0.1:8462", "listen address")
	par := flag.Int("par", 0, "per-request evaluation worker-pool width (0 = 1; requests are each other's parallelism)")
	maxInflight := flag.Int("max-inflight", serve.DefaultMaxInflight, "maximum concurrently running evaluations")
	maxQueue := flag.Int("max-queue", serve.DefaultMaxQueue, "maximum requests queued for an evaluation slot; beyond it 429 + Retry-After")
	maxSourceBytes := flag.Int("max-source-bytes", serve.DefaultMaxSourceBytes, "maximum submitted MiniC source size; beyond it 413")
	fuelCap := flag.Int64("fuel-cap", serve.DefaultFuelCap, "per-request dynamic-operation budget cap and default")
	deadlineCap := flag.Duration("deadline-cap", serve.DefaultDeadlineCap, "per-request wall-clock budget cap and default")
	drainTimeout := flag.Duration("drain-timeout", serve.DefaultDrainTimeout, "how long in-flight requests get to finish after SIGTERM")
	cacheLimit := flag.Int("cache-limit", serve.DefaultCacheLimit, "entry bound of each shared compiled-code cache (negative = unbounded)")
	execMode := flag.String("exec", "native", "default execution backend: native, bcode, or tree (requests may select their own)")
	storeDir := flag.String("store", "", "persistent content-addressed artifact store directory shared by every request")
	inject := flag.String("inject", "", "seeded fault-injection plan threaded into every request's engine, e.g. seed=7,rate=1,kinds=bpanic+flip (chaos mode)")
	flag.Parse()

	cfg := serve.Config{
		Par:            *par,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		MaxSourceBytes: *maxSourceBytes,
		FuelCap:        *fuelCap,
		DeadlineCap:    *deadlineCap,
		DrainTimeout:   *drainTimeout,
		CacheLimit:     *cacheLimit,
	}
	switch *execMode {
	case "native", "bcode", "tree":
		cfg.Exec = *execMode
	default:
		log.Printf("unknown -exec mode %q (want native, bcode or tree)", *execMode)
		return 2
	}
	var plan *resilience.FaultPlan
	if *inject != "" {
		var err error
		plan, err = resilience.ParsePlan(*inject)
		if err != nil {
			log.Print(err)
			return 2
		}
		// Mirror spdbench: only a plan that deals per-cell faults reaches the
		// engines (a non-nil Inject also bypasses the store per cell, which
		// would leave a store-level sio plan nothing to fault); the sio kind
		// arms on the store below.
		if len(plan.CellKinds()) > 0 || plan.Cells != nil {
			cfg.Inject = plan
		}
	}
	if *storeDir != "" {
		s, err := store.Open(*storeDir)
		if err != nil {
			// A broken store directory must not block serving: warn and run
			// without one — every request just computes cold.
			log.Printf("warning: -store %s unusable (%v); serving without a store", *storeDir, err)
		} else {
			cfg.Store = s
			if plan.StoreIO() {
				s.ArmIOFaults(plan.Seed, plan.Rate)
			}
		}
	}

	srv := serve.New(cfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (inflight=%d queue=%d fuel-cap=%d deadline-cap=%s)",
		*addr, *maxInflight, *maxQueue, *fuelCap, *deadlineCap)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		// The listener died before any signal: that is a startup/serve
		// failure, not a shutdown.
		log.Printf("serve: %v", err)
		return 1
	case sig := <-sigCh:
		log.Printf("%s: draining (timeout %s)", sig, *drainTimeout)
	}

	// Drain first — new requests get typed 503s while in-flight ones finish —
	// then shut the listener down.
	code := 0
	if err := srv.Drain(context.Background()); err != nil {
		log.Printf("drain: %v (abandoning in-flight requests)", err)
		code = 1
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
		code = 1
	}
	log.Print("drained; exiting")
	return code
}
