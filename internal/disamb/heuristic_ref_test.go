package disamb_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"specdis/internal/alias"
	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/disamb"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/spd"
)

// refTransform is the reference Figure 5-1 heuristic spd.Transform is
// pinned to. It is the candidate loop as first written: every arc set it
// prices — the current one, the ceiling's, each candidate group's and the
// gate's transformed clone — gets a full ir.BuildDepGraph over the tree's
// arcs, mutated in place, and path times straight from the definition.
func refTransform(p *ir.Program, prof spd.Profile, lat ir.LatencyFunc, params spd.Params) *spd.Result {
	res := &spd.Result{}
	for _, name := range p.Order {
		for _, t := range p.Funcs[name].Trees {
			if prof.TreeExecCount(t) > 0 {
				refSpecDisambig(t, prof, lat, params, res)
			}
		}
	}
	return res
}

// refTreeTime is the expected per-execution time of t on the infinite
// machine: for each exit in order, its probability times the mix of the
// likely path time (ops with SpecSide > 0 left out) and the full one, at
// alias probability q. A path completes at the latest write-back among the
// non-exit ops on it (Tree.OnPath), and no earlier than the exit resolves.
func refTreeTime(t *ir.Tree, probs []float64, lat ir.LatencyFunc, q float64) float64 {
	g := ir.BuildDepGraph(t, lat)
	asap := g.ASAP()
	var e float64
	for k, ex := range t.Exits() {
		full := asap[ex.Seq] + g.Latency(ex.Seq)
		likely := full
		for i, op := range t.Ops {
			if op.Kind == ir.OpExit || !t.OnPath(op.Block, ex.Block) {
				continue
			}
			c := asap[i] + g.Latency(i)
			full = max(full, c)
			if op.SpecSide <= 0 {
				likely = max(likely, c)
			}
		}
		e += probs[k] * ((1-q)*float64(likely) + q*float64(full))
	}
	return e
}

// refArcTight reports whether arc a is tight under the ASAP schedule.
func refArcTight(g *ir.DepGraph, asap []int, a *ir.MemArc) bool {
	from, to := a.From.Seq, a.To.Seq
	var delay int
	switch a.Kind {
	case ir.DepRAW:
		delay = g.Latency(from)
	case ir.DepWAR:
		delay = 1 - g.Latency(to)
	case ir.DepWAW:
		delay = 1
	}
	return asap[to] == asap[from]+delay
}

func refSpecDisambig(t *ir.Tree, prof spd.Profile, lat ir.LatencyFunc, params spd.Params, res *spd.Result) {
	maxSize := int(float64(t.Size()) * params.MaxExpansion)
	skip := map[*ir.MemArc]bool{}
	var probs []float64
	for _, e := range t.Exits() {
		probs = append(probs, prof.ExitProb(t, e))
	}
	q := params.AssumedAliasProb
	eligible := func(a *ir.MemArc) bool {
		return a.Ambiguous && !skip[a] &&
			a.AliasProb(params.AssumedAliasProb) <= params.MaxAliasProb &&
			a.To.SpecSide <= 0
	}
	for iter := 0; iter < params.MaxIterationsPerTree; iter++ {
		if t.Size() >= maxSize {
			return
		}
		g := ir.BuildDepGraph(t, lat)
		asap := g.ASAP()
		cur := refTreeTime(t, probs, lat, q)

		var removed []*ir.MemArc
		kept := t.Arcs[:0]
		for _, a := range t.Arcs {
			if eligible(a) {
				removed = append(removed, a)
			} else {
				kept = append(kept, a)
			}
		}
		t.Arcs = kept
		ideal := refTreeTime(t, probs, lat, q)
		t.Arcs = append(t.Arcs, removed...)
		ceiling := cur - ideal
		if ceiling < params.MinGain {
			return
		}

		var best *ir.MemArc
		bestGain := -1.0
		for _, a := range append([]*ir.MemArc(nil), t.Arcs...) {
			if !eligible(a) || !refArcTight(g, asap, a) {
				continue
			}
			p := a.AliasProb(params.AssumedAliasProb)
			group := []*ir.MemArc{}
			for _, b := range t.Arcs {
				if b.Ambiguous && b.To == a.To && b.Kind == a.Kind &&
					b.AliasProb(params.AssumedAliasProb) <= params.MaxAliasProb {
					group = append(group, b)
				}
			}
			for _, b := range group {
				t.RemoveArc(b)
			}
			without := refTreeTime(t, probs, lat, q)
			t.Arcs = append(t.Arcs, group...)
			gn := (1 - p) * (cur - without)
			if gn > bestGain ||
				(gn == bestGain && best != nil && a.To.Seq < best.To.Seq) {
				best, bestGain = a, gn
			}
		}
		if best == nil {
			return
		}
		if bestGain < params.MinGain {
			bestGain = ceiling
		}
		bestIdx := -1
		for i, a := range t.Arcs {
			if a == best {
				bestIdx = i
				break
			}
		}

		clone := t.Clone()
		if _, err := spd.Apply(clone, clone.Arcs[bestIdx], params.Forwarding); err != nil {
			skip[best] = true
			continue
		}
		if after := refTreeTime(clone, probs, lat, q); after > cur+0.25 {
			skip[best] = true
			continue
		}
		info, err := spd.ApplyInfo(t, best, params.Forwarding)
		skip[best] = true
		if err != nil {
			continue
		}
		res.Apps = append(res.Apps, spd.Application{Tree: t, Kind: best.Kind, Gain: bestGain, Added: info.Added, Pairs: info.Pairs})
		res.AddedOps += info.Added
		switch best.Kind {
		case ir.DepRAW:
			res.RAW++
		case ir.DepWAR:
			res.WAR++
		case ir.DepWAW:
			res.WAW++
		}
	}
}

// heuristicDiff runs spd.Transform and refTransform on two profiled,
// statically disambiguated clones of prog and reports the first difference:
// in any Application's tree, kind, gain bits, added count or pairs, in the
// result's counts, or in any tree's final op and arc order.
func heuristicDiff(prog *ir.Program, memLat int, params spd.Params) (diff string, apps int, err error) {
	run, err := disamb.ProfileRun(prog, disamb.Options{MemLat: memLat})
	if err != nil {
		return "", 0, err
	}
	lat := machine.Infinite(memLat).LatencyFunc()
	var progs [2]*ir.Program
	var results [2]*spd.Result
	for i, transform := range []func(*ir.Program, spd.Profile, ir.LatencyFunc, spd.Params) *spd.Result{spd.Transform, refTransform} {
		progs[i] = prog.Clone()
		if err := run.Profile.AnnotateArcs(progs[i]); err != nil {
			return "", 0, err
		}
		alias.ResolveProgram(progs[i])
		results[i] = transform(progs[i], run.Profile, lat, params)
	}
	got, want := results[0], results[1]
	apps = len(want.Apps)
	if len(got.Apps) != len(want.Apps) {
		return fmt.Sprintf("%d applications, reference %d", len(got.Apps), len(want.Apps)), apps, nil
	}
	for i := range got.Apps {
		g, w := got.Apps[i], want.Apps[i]
		if g.Tree.PIdx != w.Tree.PIdx || g.Kind != w.Kind || math.Float64bits(g.Gain) != math.Float64bits(w.Gain) ||
			g.Added != w.Added || !reflect.DeepEqual(g.Pairs, w.Pairs) {
			return fmt.Sprintf("application %d: tree %d %s gain %v added %d, reference tree %d %s gain %v added %d (pairs equal: %v)",
				i, g.Tree.PIdx, g.Kind, g.Gain, g.Added, w.Tree.PIdx, w.Kind, w.Gain, w.Added, reflect.DeepEqual(g.Pairs, w.Pairs)), apps, nil
		}
	}
	if got.RAW != want.RAW || got.WAR != want.WAR || got.WAW != want.WAW || got.AddedOps != want.AddedOps || got.VerifyErr != nil {
		return fmt.Sprintf("counts %d/%d/%d +%d (%v), reference %d/%d/%d +%d",
			got.RAW, got.WAR, got.WAW, got.AddedOps, got.VerifyErr, want.RAW, want.WAR, want.WAW, want.AddedOps), apps, nil
	}
	for _, name := range progs[0].Order {
		for i, t := range progs[0].Funcs[name].Trees {
			if g, w := t.String(), progs[1].Funcs[name].Trees[i].String(); g != w {
				return fmt.Sprintf("tree %s differs:\n%s\nreference:\n%s", t.Name, g, w), apps, nil
			}
		}
	}
	return "", apps, nil
}

// TestHeuristicMatchesReferenceOnSuite pins spd.Transform's decisions to
// the reference heuristic on every suite program at both memory latencies.
func TestHeuristicMatchesReferenceOnSuite(t *testing.T) {
	apps := 0
	for _, b := range bench.Everything() {
		prog, err := compile.Compile(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, memLat := range []int{2, 6} {
			diff, n, err := heuristicDiff(prog, memLat, spd.DefaultParams())
			if err != nil {
				t.Fatalf("%s m%d: %v", b.Name, memLat, err)
			}
			if diff != "" {
				t.Fatalf("%s m%d: %s", b.Name, memLat, diff)
			}
			apps += n
		}
	}
	if apps == 0 {
		t.Fatal("the suite exercised no SpD application")
	}
	t.Logf("%d applications", apps)
}

// TestHeuristicMatchesReferenceOnRandomPrograms is the same differential
// check over the random-program generator, at an eager and at the default
// MinGain, alternating the memory latency by seed.
func TestHeuristicMatchesReferenceOnRandomPrograms(t *testing.T) {
	n, apps := int64(300), 0
	if testing.Short() {
		n = 40
	}
	for seed := int64(1); seed <= n; seed++ {
		src := newProgGen(seed).generate()
		prog, err := compile.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		memLat := 2 + 4*int(seed%2)
		for _, minGain := range []float64{0.01, 0.25} {
			params := spd.DefaultParams()
			params.MinGain = minGain
			diff, n, err := heuristicDiff(prog, memLat, params)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if diff != "" {
				t.Fatalf("seed %d m%d MinGain %v: %s\n%s", seed, memLat, minGain, diff, strings.TrimSpace(src))
			}
			apps += n
		}
	}
	if apps < int(n) {
		t.Fatalf("%d programs exercised only %d SpD applications", n, apps)
	}
	t.Logf("%d programs, %d applications", n, apps)
}
