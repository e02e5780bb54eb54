package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"specdis/internal/bench"
	"specdis/internal/disamb"
	"specdis/internal/exper"
	"specdis/internal/serve"
)

// sourceSuffix ends every program submitted as source text. spdd's
// single-flight key hashes the source, so without it a source request could
// coalesce onto an identical bench request in flight and be answered with
// that request's "bench" name; a trailing comment keeps the two apart
// without changing what compiles.
const sourceSuffix = "// submitted as source text\n"

// draw is one generated /v1/eval request.
type draw struct {
	req  serve.EvalRequest
	b    *bench.Benchmark
	kind disamb.Kind
}

// numCells is the serve-cells cell space: every program, including the
// three the batch sweep never sees, × 4 pipelines × 2 memory latencies.
func numCells() int { return len(bench.Everything()) * len(disamb.Kinds) * len(exper.MemLats) }

// cellDraw returns cell c of the cell space as a bench request.
func cellDraw(c int) draw {
	nk, nl := len(disamb.Kinds), len(exper.MemLats)
	b := bench.Everything()[c/(nk*nl)]
	kind := disamb.Kinds[c/nl%nk]
	return draw{
		req:  serve.EvalRequest{Bench: b.Name, Pipeline: kind.String(), MemLat: exper.MemLats[c%nl]},
		b:    b,
		kind: kind,
	}
}

// The request stream is dealt from shuffled decks so that every run, whatever
// its seed, sends the same mix: a deck holds every cell twice (224
// requests), and among each program's 16 slots exactly one carries lint and
// exactly two send the program as source text — 1 in 16 and 1 in 8 of all
// requests. The seed fixes which slots and the deck order. The per-program
// split matters: linting perm or queen takes ~0.3 s against ~25 ms for
// most programs, so a free draw would move the latency tail with the seed.
const (
	cellCopies    = 2
	lintPerProg   = 1
	sourcePerProg = 2
)

// stream is seed's request stream; request i is a pure function of
// (seed, i). Safe for concurrent use.
type stream struct {
	seed  int64
	mu    sync.Mutex
	decks map[int64][]draw
}

func newStream(seed int64) *stream { return &stream{seed: seed, decks: map[int64][]draw{}} }

// at returns request i.
func (s *stream) at(i int64) draw {
	n := i / int64(deckSize())
	s.mu.Lock()
	deck, ok := s.decks[n]
	if !ok {
		deck = dealDeck(s.seed, n)
		s.decks[n] = deck
	}
	s.mu.Unlock()
	return deck[i%int64(deckSize())]
}

func deckSize() int { return numCells() * cellCopies }

// dealDeck returns deck number n of seed's stream.
func dealDeck(seed, n int64) []draw {
	rng := rand.New(rand.NewSource(int64(splitmix64(splitmix64(uint64(seed)) ^ uint64(n)))))
	slotsPerProg := deckSize() / len(bench.Everything())
	var deck []draw
	for p := range bench.Everything() {
		// The program's slots: its cells, cellCopies times over, with lint
		// and source text dealt to distinct random slots.
		slots := make([]draw, 0, slotsPerProg)
		for copyN := 0; copyN < cellCopies; copyN++ {
			for c := 0; c < slotsPerProg/cellCopies; c++ {
				slots = append(slots, cellDraw(p*slotsPerProg/cellCopies+c))
			}
		}
		perm := rng.Perm(len(slots))
		for _, j := range perm[:lintPerProg] {
			slots[j].req.Lint = true
		}
		for _, j := range perm[lintPerProg : lintPerProg+sourcePerProg] {
			slots[j].req.Source = slots[j].b.Source + sourceSuffix
			slots[j].req.Bench = ""
		}
		deck = append(deck, slots...)
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// composition returns the shares of SPEC, lint, source-text and
// unaffected-program requests among the first n requests of the stream.
func (s *stream) composition(n int64) map[string]float64 {
	var spec, lint, src, unaff int64
	for i := int64(0); i < n; i++ {
		d := s.at(i)
		if d.kind == disamb.Spec {
			spec++
		}
		if d.req.Lint {
			lint++
		}
		if d.req.Source != "" {
			src++
		}
		if d.b.Unaffected {
			unaff++
		}
	}
	share := func(k int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(k) / float64(n)
	}
	return map[string]float64{"spec": share(spec), "lint": share(lint), "source": share(src), "unaffected": share(unaff)}
}

// server is an in-process spdd on a loopback listener, with a client pool
// of at most one connection per benchmark client.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startServer(clients int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  serve.New(serve.Config{}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return s, nil
}

// stop drains the daemon, shuts the listener and connections down, and
// waits for the serving goroutine to exit.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx)
	_ = s.hs.Shutdown(ctx)
	<-s.done
	s.client.CloseIdleConnections()
}

// reply is one answered request.
type reply struct {
	clientMS float64
	stats    serve.EvalStats
	lint     bool
}

// eval sends one request and checks its result against the oracle.
func (s *server) eval(o *oracle, d draw) (reply, error) {
	body, err := json.Marshal(&d.req)
	if err != nil {
		return reply{}, err
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/v1/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep := reply{clientMS: float64(time.Since(t0).Nanoseconds()) / 1e6, lint: d.req.Lint}
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("%s/%s/%d: status %d: %s", d.b.Name, d.req.Pipeline, d.req.MemLat, resp.StatusCode, bytes.TrimSpace(data))
	}
	var r struct {
		Result json.RawMessage `json:"result"`
		Stats  serve.EvalStats `json:"stats"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return rep, err
	}
	rep.stats = r.Stats
	want, err := o.expectedResult(&d.req, d.b)
	if err != nil {
		return rep, err
	}
	if !bytes.Equal(r.Result, want) {
		return rep, fmt.Errorf("%s/%s/%d (source %t, lint %t): result differs from the oracle", d.b.Name, d.req.Pipeline, d.req.MemLat, d.req.Source != "", d.req.Lint)
	}
	return rep, nil
}

func (s *server) metrics() (*serve.Metrics, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}

// warmUp sends every cell of the cell space once as a bench request, from
// clients goroutines, so the daemon's shared compiled-code caches are warm
// as in a long-running spdd.
func (s *server) warmUp(o *oracle, clients int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < numCells(); i = int(next.Add(1) - 1) {
				_, _ = s.eval(o, cellDraw(i))
			}
		}()
	}
	wg.Wait()
}

func runServeCells(cfg config, log io.Writer) (*outcome, error) {
	clients := runtime.NumCPU()
	var (
		o   *oracle
		srv *server
	)
	// Set-up loads the oracle, starts the daemon and warms it with one
	// request per cell. Correctness is checked on the timed requests.
	setupS, err := timedSetup(cfg.setupReps, func() error {
		var err error
		if o, err = loadOracle(cfg.oracleDir); err != nil {
			return err
		}
		if srv, err = startServer(clients); err != nil {
			return err
		}
		srv.warmUp(o, clients)
		return nil
	}, func() { srv.stop() })
	if srv != nil {
		defer srv.stop()
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	window := cfg.window
	if cfg.traced {
		window /= 2
	}
	m0, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	reqs := newStream(cfg.seed)
	var next atomic.Int64
	replies := make([][]reply, clients)
	ls := closedLoop(clients, window, log, func(c int) error {
		rep, err := srv.eval(o, reqs.at(next.Add(1)-1))
		if err == nil {
			replies[c] = append(replies[c], rep)
		}
		return err
	})
	m1, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}, info: map[string]any{
		"exec": fmt.Sprintf("serve.Config{} defaults: exec=native tierup=%d trace=replay par=1 per request, max_inflight=%d, fuel=%d",
			exper.DefaultTierUp, serve.DefaultMaxInflight, int64(serve.DefaultFuelCap)),
		"clients":     clients,
		"composition": reqs.composition(ls.ops()),
	}}
	if !cfg.traced {
		out.finishUntraced(ls, cfg.tailPct, setupS)
		return out, nil
	}

	// Traced half: re-drive the same request stream, from its start,
	// through the layers' public functions, one private set of
	// preparations per request over long-lived shared caches.
	d := newRedrive(&serve.Config{})
	for c := 0; c < numCells(); c++ {
		cd := cellDraw(c)
		if _, err := d.request(0, cd.b, cd.b.Source, cd.kind, cd.req.MemLat); err != nil {
			return nil, err
		}
	}
	d.reset()
	var rnext atomic.Int64
	tl := closedLoop(clients, window, log, func(c int) error {
		dr := reqs.at(rnext.Add(1) - 1)
		src := dr.req.Source
		if src == "" {
			src = dr.b.Source
		}
		got, err := d.request(c, dr.b, src, dr.kind, dr.req.MemLat)
		if err != nil {
			return err
		}
		want := o.Cells[cellKey(dr.b.Name, dr.kind.String(), dr.req.MemLat)]
		if got.Inf != want.CyclesInf || !slices.Equal(got.ByWidth[:], want.CyclesByWidth) || got.Ops != want.Ops {
			return fmt.Errorf("traced re-drive of %s/%s/%d differs from the oracle", dr.b.Name, dr.kind, dr.req.MemLat)
		}
		return nil
	})
	m := d.layerMetrics(tl.ops())
	var server, overhead, evalMS, lintMS, plainServer []float64
	for _, rs := range replies {
		for _, r := range rs {
			if r.lint {
				lintMS = append(lintMS, r.clientMS)
			} else {
				evalMS = append(evalMS, r.clientMS)
			}
			if r.stats.Deduped {
				continue // the leader's elapsed time, not this request's
			}
			server = append(server, r.stats.ElapsedMS)
			overhead = append(overhead, r.clientMS-r.stats.ElapsedMS)
			if !r.lint {
				plainServer = append(plainServer, r.stats.ElapsedMS)
			}
		}
	}
	n := float64(ls.ops())
	evals := float64(m1.Server.Evals - m0.Server.Evals)
	compiled := m1.Cache.Compiled - m0.Cache.Compiled
	hits := m1.Cache.Hits - m0.Cache.Hits
	m["serve.server_ms_p50"] = median(server)
	m["serve.overhead_ms_p50"] = median(overhead)
	m["serve.eval_p50_ms"] = median(evalMS)
	m["serve.lint_p50_ms"] = median(lintMS)
	if evals > 0 {
		m["serve.dedup_ratio"] = float64(m1.Server.DedupHits-m0.Server.DedupHits) / evals
	}
	m["serve.rejections"] = float64(m1.Server.AdmissionRejections - m0.Server.AdmissionRejections + m1.Server.DrainRejections - m0.Server.DrainRejections)
	m["serve.cache_evictions"] = float64(m1.Cache.Evictions - m0.Cache.Evictions)
	// The daemon's own engine counters, from /metrics, replace the
	// re-drive's for the execution layer. exec.tier_ups stays the
	// re-drive's: spdd's degradation.tier_ups sums per-request runner
	// counters, which its shared caches never increment.
	m["exec.trees_compiled"] = float64(compiled) / n
	m["exec.cache_hit_ratio"] = 0
	if hits+compiled > 0 {
		m["exec.cache_hit_ratio"] = float64(hits) / float64(hits+compiled)
	}
	m["exec.fallbacks"] = float64(m1.Degradation.NCodeFallbacks - m0.Degradation.NCodeFallbacks + m1.Degradation.BCodeFallbacks - m0.Degradation.BCodeFallbacks)
	m["exper.cell_failures"] = float64(m1.Degradation.CellFailures - m0.Degradation.CellFailures)
	// The untraced counterpart of a re-driven request is the server's own
	// time for it, lint excluded (the re-drive does not lint).
	out.finishTraced(m, ls, tl, median(plainServer))
	out.info["lint_requests"] = len(lintMS)
	out.info["spans"] = d.spanCount()
	if err := d.writeSpans(spanPath(cfg)); err != nil {
		return nil, err
	}
	out.info["spans_file"] = spanPath(cfg)
	return out, nil
}
