package disamb_test

import (
	"bytes"
	"reflect"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/disamb"
	"specdis/internal/ir"
	"specdis/internal/spd"
)

// TestSharedProfileMatchesPrivate is the differential test for the shared
// profiling run internal/exper gives every benchmark: on every suite
// program, PERFECT and SPEC at both latencies prepared from one ProfileRun
// (over untransformed clones of one compilation) must equal the same
// preparation from a private profiling run, down to every arc's counters
// and every SpD application's gain. The run's trace is the arc-only class's
// trace: NAIVE, STATIC and PERFECT transform arcs only, so a fresh capture
// of any of them, at either latency, records the same bytes, and replaying
// the shared trace prices them exactly as interpreting does.
func TestSharedProfileMatchesPrivate(t *testing.T) {
	params := spd.DefaultParams()
	for _, bm := range bench.All() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			base, err := compile.Compile(bm.Source)
			if err != nil {
				t.Fatal(err)
			}
			run, err := disamb.ProfileRun(base, disamb.Options{MemLat: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				kind   disamb.Kind
				memLat int
			}{{disamb.Perfect, 2}, {disamb.Spec, 2}, {disamb.Spec, 6}} {
				o := disamb.Options{Kind: c.kind, MemLat: c.memLat, SpD: params}
				private, err := disamb.PrepareOpts(bm.Source, o)
				if err != nil {
					t.Fatalf("%s/%d private: %v", c.kind, c.memLat, err)
				}
				o.Prog = base.Clone()
				shared, err := disamb.PrepareFrom(run, o)
				if err != nil {
					t.Fatalf("%s/%d shared: %v", c.kind, c.memLat, err)
				}
				samePreparation(t, shared, private)
			}

			for _, kind := range []disamb.Kind{disamb.Naive, disamb.Static, disamb.Perfect} {
				if kind.LatencySensitive() {
					t.Fatalf("%s unexpectedly latency-sensitive", kind)
				}
				for _, memLat := range []int{2, 6} {
					p, err := disamb.PrepareFrom(run, disamb.Options{Kind: kind, MemLat: memLat, SpD: params, Prog: base.Clone()})
					if err != nil {
						t.Fatal(err)
					}
					tr, err := disamb.Capture(p)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(tr.Bytes(), run.Trace.Bytes()) {
						t.Fatalf("%s memLat %d: capture differs from the shared run's trace (%d vs %d bytes)",
							kind, memLat, tr.Size(), run.Trace.Size())
					}
					models := stdModels(memLat)
					want, err := disamb.Measure(p, models)
					if err != nil {
						t.Fatal(err)
					}
					got, err := disamb.ReplayMeasure(p, models, run.Trace)
					if err != nil {
						t.Fatalf("%s memLat %d: replaying the shared trace: %v", kind, memLat, err)
					}
					if !reflect.DeepEqual(got.Times, want.Times) {
						t.Fatalf("%s memLat %d: shared-trace times %v, interp %v", kind, memLat, got.Times, want.Times)
					}
				}
			}
		})
	}
}

// samePreparation fails the test unless two preparations of one source are
// indistinguishable: operation counts, every arc's profiled counters, SpD's
// applications by dependence type and gain, and the profiling output.
func samePreparation(t *testing.T, got, want *disamb.Prepared) {
	t.Helper()
	name := want.Kind.String()
	if got.Output != want.Output {
		t.Fatalf("%s/%d: output differs", name, want.MemLat)
	}
	if g, w := got.Prog.OpCount(), want.Prog.OpCount(); g != w || got.BaseOps != want.BaseOps {
		t.Fatalf("%s/%d: ops %d (base %d), want %d (base %d)", name, want.MemLat, g, got.BaseOps, w, want.BaseOps)
	}
	if g, w := arcCounts(got.Prog), arcCounts(want.Prog); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s/%d: arc counters differ:\n got %v\nwant %v", name, want.MemLat, g, w)
	}
	if (got.SpD == nil) != (want.SpD == nil) {
		t.Fatalf("%s/%d: SpD result presence differs", name, want.MemLat)
	}
	if want.SpD == nil {
		return
	}
	if got.SpD.RAW != want.SpD.RAW || got.SpD.WAR != want.SpD.WAR || got.SpD.WAW != want.SpD.WAW {
		t.Fatalf("%s/%d: SpD RAW/WAR/WAW %d/%d/%d, want %d/%d/%d", name, want.MemLat,
			got.SpD.RAW, got.SpD.WAR, got.SpD.WAW, want.SpD.RAW, want.SpD.WAR, want.SpD.WAW)
	}
	if len(got.SpD.Apps) != len(want.SpD.Apps) {
		t.Fatalf("%s/%d: %d SpD applications, want %d", name, want.MemLat, len(got.SpD.Apps), len(want.SpD.Apps))
	}
	for i := range want.SpD.Apps {
		if g, w := got.SpD.Apps[i].Gain, want.SpD.Apps[i].Gain; g != w {
			t.Fatalf("%s/%d: application %d gain %v, want %v", name, want.MemLat, i, g, w)
		}
	}
}

// arcCounts lists every arc's (ExecCount, AliasCount) in program order.
func arcCounts(p *ir.Program) [][2]int64 {
	var out [][2]int64
	for _, name := range p.Order {
		for _, t := range p.Funcs[name].Trees {
			for _, a := range t.Arcs {
				out = append(out, [2]int64{a.ExecCount, a.AliasCount})
			}
		}
	}
	return out
}
