package exper_test

import (
	"testing"
	"time"

	"specdis/internal/exper"
)

// TestTraceReplayEquivalence pins trace sharing's contract at the
// experiment level: the full rendered report is byte-identical with shared
// traces and with every cell interpreting its own program, sequentially and
// under a parallel worker pool, and with sharing on every timed cell replays
// a shared trace without a single interpreting measurement.
func TestTraceReplayEquivalence(t *testing.T) {
	interp := exper.New()
	interp.Par = 1
	interp.TraceReplay = false
	want := renderAll(t, interp)

	replaySeq := exper.New()
	replaySeq.Par = 1
	replayPar := exper.New()
	replayPar.Par = 4
	for name, r := range map[string]*exper.Runner{"sequential": replaySeq, "parallel": replayPar} {
		if !r.TraceReplay {
			t.Fatalf("TraceReplay not on by default")
		}
		if got := renderAll(t, r); got != want {
			t.Errorf("%s replay output differs from interpretation:\n--- interp ---\n%s\n--- replay ---\n%s", name, want, got)
		}
	}

	ist := interp.Stats()
	if ist.ReplayCells != 0 || ist.TraceCaptures != 0 || ist.TraceEvents != 0 {
		t.Errorf("interp backend did trace work: %+v", ist)
	}
	if ist.InterpCells != ist.Measures {
		t.Errorf("interp backend: %d interp cells, %d measures", ist.InterpCells, ist.Measures)
	}

	if replaySeq.Stats() != replayPar.Stats() {
		t.Errorf("replay work counters differ: sequential %+v, parallel %+v", replaySeq.Stats(), replayPar.Stats())
	}
	rst := replaySeq.Stats()
	if rst.InterpCells != 0 {
		t.Errorf("replay backend interpreted %d timed cells", rst.InterpCells)
	}
	if rst.ReplayCells != rst.Measures || rst.Measures == 0 {
		t.Errorf("replay backend: %d replay cells, %d measures", rst.ReplayCells, rst.Measures)
	}
	if rst.TraceCaptures == 0 || rst.TraceEvents == 0 || rst.TraceBytes == 0 {
		t.Errorf("no traces captured: %+v", rst)
	}
	if rst.TraceHits < 0 {
		t.Errorf("negative trace cache hits: %+v", rst)
	}
	// Trace-class sharing: strictly fewer captures than trace requests (the
	// arc-only pipelines share one trace per benchmark).
	if rst.TraceHits == 0 {
		t.Errorf("trace cache never hit: %+v", rst)
	}

	// The replayed operation totals must equal the interpreted ones exactly —
	// the invariant the CI benchmark smoke job pins via sim_ops.
	if rst.SimOps != ist.SimOps || rst.Measures != ist.Measures || rst.Prepares != ist.Prepares {
		t.Errorf("work differs across backends: replay %+v, interp %+v", rst, ist)
	}
}

// TestStatsWhileWarming polls Stats from another goroutine while a parallel
// run is warming its cells: every counter must be monotonic across snapshots
// and derived counters must never go inconsistent (TraceHits, in particular,
// must never be negative mid-warm). Run under -race this also checks the
// counters are data-race-free.
func TestStatsWhileWarming(t *testing.T) {
	r := exper.New()
	r.Par = 4
	errc := make(chan error, 1)
	go func() {
		_, err := r.Figure62()
		if err == nil {
			_, err = r.Table63()
		}
		errc <- err
	}()

	var prev exper.Stats
	check := func(s exper.Stats) {
		t.Helper()
		if s.TraceHits < 0 {
			t.Fatalf("negative TraceHits mid-warm: %+v", s)
		}
		for _, c := range [][2]int64{
			{prev.Prepares, s.Prepares},
			{prev.Measures, s.Measures},
			{prev.SimOps, s.SimOps},
			{prev.TraceCaptures, s.TraceCaptures},
			{prev.TraceEvents, s.TraceEvents},
			{prev.TraceBytes, s.TraceBytes},
			{prev.ReplayCells, s.ReplayCells},
			{prev.InterpCells, s.InterpCells},
		} {
			if c[1] < c[0] {
				t.Fatalf("counter went backwards: %+v then %+v", prev, s)
			}
		}
		prev = s
	}
	for {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
			s := r.Stats()
			check(s)
			if s.Measures == 0 || s.ReplayCells != s.Measures {
				t.Fatalf("final stats inconsistent: %+v", s)
			}
			return
		default:
			check(r.Stats())
			time.Sleep(100 * time.Microsecond)
		}
	}
}
