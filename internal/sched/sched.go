// Package sched schedules decision trees for LIFE machine configurations:
// an ASAP schedule for the infinite machine and a list scheduler for
// constrained machines with N universal, fully pipelined functional units
// (each op occupies one issue slot in its issue cycle).
//
// The list scheduler keeps its ready list in a priority heap and advances
// time event-driven — idle cycles are skipped directly to the next
// earliest-ready time — so scheduling is O(ops·log ops + edges) instead of
// the O(cycles·ready²) of a naive per-slot rescan. The selection order is
// identical to the reference scan scheduler (see listScheduleRef), so the
// produced schedules are bit-for-bit the same.
//
// A Cache schedules each distinct dependence graph of a sweep once, at every
// requested width in one call (see comps).
package sched

import (
	"fmt"
	"sort"

	"specdis/internal/ir"
	"specdis/internal/machine"
)

// Schedule holds issue and completion cycles per op (indexed by Seq).
type Schedule struct {
	Issue []int64
	Comp  []int64 // Issue + latency: write-back / resolution cycle
}

// Length returns the overall schedule length (max completion).
func (s *Schedule) Length() int64 {
	var max int64
	for _, c := range s.Comp {
		if c > max {
			max = c
		}
	}
	return max
}

// Tree schedules one tree for the given machine model. NumFUs == 0 yields
// the ASAP (infinite machine) schedule.
//
// When scheduling one tree under several models that share a latency
// function, build the dependence graph once with ir.BuildDepGraph and call
// FromGraph per model instead: graph construction dominates the cost.
func Tree(t *ir.Tree, m machine.Model) *Schedule {
	g := ir.BuildDepGraph(t, m.LatencyFunc())
	return FromGraph(g, m.NumFUs)
}

// FromGraph schedules a prebuilt dependence graph on n functional units
// (n == 0 for the infinite machine).
func FromGraph(g *ir.DepGraph, n int) *Schedule {
	if n <= 0 {
		asap := g.ASAP()
		s := &Schedule{Issue: make([]int64, len(asap)), Comp: make([]int64, len(asap))}
		for i, c := range asap {
			s.Issue[i] = int64(c)
			s.Comp[i] = int64(c + g.Latency(i))
		}
		return s
	}
	return listSchedule(g, n)
}

// height computes the critical-path height of each op: the longest
// delay-weighted path from the op to any sink, plus its own latency.
func height(g *ir.DepGraph) []int64 {
	n := len(g.Tree.Ops)
	h := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		h[i] = int64(g.Latency(i))
		for _, e := range g.Succ[i] {
			if v := int64(e.Delay) + h[e.To]; v > h[i] {
				h[i] = v
			}
		}
	}
	return h
}

// schedState is the shared scratch of one listSchedule call: a max-heap of
// issueable ops ordered by pick priority (exits first, then greater
// critical-path height, then program order) and a min-heap of ops whose
// predecessors are scheduled but whose earliest issue cycle is still in the
// future, keyed by that cycle.
type schedState struct {
	isExit   []bool
	h        []int64 // critical-path heights
	earliest []int64

	ready   []int // max-heap by pick priority
	pending []int // min-heap by earliest, ties by op index
}

// readyLess reports whether op a should be picked before op b: exits first
// (branch resolution gates when the next tree can start), then greater
// critical-path height, then program order. Op indices equal Seq, so the
// final tie-break is a < b.
func (s *schedState) readyLess(a, b int) bool {
	if s.isExit[a] != s.isExit[b] {
		return s.isExit[a]
	}
	if s.h[a] != s.h[b] {
		return s.h[a] > s.h[b]
	}
	return a < b
}

func (s *schedState) pendingLess(a, b int) bool {
	if s.earliest[a] != s.earliest[b] {
		return s.earliest[a] < s.earliest[b]
	}
	return a < b
}

func (s *schedState) pushReady(i int) {
	s.ready = append(s.ready, i)
	j := len(s.ready) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !s.readyLess(s.ready[j], s.ready[p]) {
			break
		}
		s.ready[j], s.ready[p] = s.ready[p], s.ready[j]
		j = p
	}
}

func (s *schedState) popReady() int {
	top := s.ready[0]
	last := len(s.ready) - 1
	s.ready[0] = s.ready[last]
	s.ready = s.ready[:last]
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		best := j
		if l < last && s.readyLess(s.ready[l], s.ready[best]) {
			best = l
		}
		if r < last && s.readyLess(s.ready[r], s.ready[best]) {
			best = r
		}
		if best == j {
			break
		}
		s.ready[j], s.ready[best] = s.ready[best], s.ready[j]
		j = best
	}
	return top
}

func (s *schedState) pushPending(i int) {
	s.pending = append(s.pending, i)
	j := len(s.pending) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !s.pendingLess(s.pending[j], s.pending[p]) {
			break
		}
		s.pending[j], s.pending[p] = s.pending[p], s.pending[j]
		j = p
	}
}

func (s *schedState) popPending() int {
	top := s.pending[0]
	last := len(s.pending) - 1
	s.pending[0] = s.pending[last]
	s.pending = s.pending[:last]
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		best := j
		if l < last && s.pendingLess(s.pending[l], s.pending[best]) {
			best = l
		}
		if r < last && s.pendingLess(s.pending[r], s.pending[best]) {
			best = r
		}
		if best == j {
			break
		}
		s.pending[j], s.pending[best] = s.pending[best], s.pending[j]
		j = best
	}
	return top
}

// lister list-schedules one graph at one width after another. The
// critical-path heights and exit flags are computed once per graph, and the
// heaps and per-op scratch are allocated once and reset per run.
type lister struct {
	g      *ir.DepGraph
	st     schedState
	npreds []int
	issue  []int64
}

func newLister(g *ir.DepGraph) *lister {
	n := len(g.Tree.Ops)
	l := &lister{
		g: g,
		st: schedState{
			isExit:   make([]bool, n),
			h:        height(g),
			earliest: make([]int64, n),
			ready:    make([]int, 0, n),
			pending:  make([]int, 0, n),
		},
		npreds: make([]int, n),
		issue:  make([]int64, n),
	}
	for i, op := range g.Tree.Ops {
		l.st.isExit[i] = op.Kind == ir.OpExit
	}
	return l
}

// run is the heap-based list scheduler: it schedules the graph on numFUs
// units into l.issue. Selection order matches listScheduleRef exactly; only
// the mechanics differ: issueable ops sit in a priority heap instead of
// being rescanned per slot, ops whose earliest cycle is in the future wait
// in a time-keyed heap, and empty cycles are skipped in one step.
//
// run reports whether the width ever constrained a choice: whether some
// cycle ended with an op ready to issue and no slot left for it. An
// unconstrained run issued every ready op in the cycle it became ready, so
// a run on any wider machine pops the same ops in the same order and makes
// the same schedule.
func (l *lister) run(numFUs int) (constrained bool) {
	g, st, issue, npreds := l.g, &l.st, l.issue, l.npreds
	n := len(issue)
	st.ready, st.pending = st.ready[:0], st.pending[:0]
	for i := 0; i < n; i++ {
		npreds[i] = len(g.Pred[i])
		issue[i] = -1
		st.earliest[i] = 0
	}
	for i := 0; i < n; i++ {
		if npreds[i] == 0 {
			st.pushReady(i) // earliest is 0 = first cycle: immediately issueable
		}
	}

	unscheduled := n
	var cycle int64
	for unscheduled > 0 {
		// Admit pending ops whose earliest cycle has arrived.
		for len(st.pending) > 0 && st.earliest[st.pending[0]] <= cycle {
			st.pushReady(st.popPending())
		}
		if len(st.ready) == 0 {
			if len(st.pending) == 0 {
				panic(fmt.Sprintf("list scheduler stuck on tree %s: dependence cycle", g.Tree.Name))
			}
			cycle = st.earliest[st.pending[0]] // skip the idle gap
			continue
		}
		for slots := numFUs; slots > 0 && len(st.ready) > 0; slots-- {
			best := st.popReady()
			issue[best] = cycle
			unscheduled--
			for _, e := range g.Succ[best] {
				if v := cycle + int64(e.Delay); v > st.earliest[e.To] {
					st.earliest[e.To] = v
				}
				if npreds[e.To]--; npreds[e.To] == 0 {
					// Negative-delay (anti-dependence) edges can free a
					// successor into the current cycle.
					if st.earliest[e.To] <= cycle {
						st.pushReady(e.To)
					} else {
						st.pushPending(e.To)
					}
				}
			}
		}
		// The slot loop stops on an empty ready heap or on no slots left.
		constrained = constrained || len(st.ready) > 0
		cycle++
	}
	return constrained
}

// comp returns the completion cycles of the last run's schedule.
func (l *lister) comp() []int64 {
	c := make([]int64, len(l.issue))
	for i, at := range l.issue {
		c[i] = at + int64(l.g.Latency(i))
	}
	return c
}

// listSchedule list-schedules g on numFUs units.
func listSchedule(g *ir.DepGraph, numFUs int) *Schedule {
	l := newLister(g)
	l.run(numFUs)
	return &Schedule{Issue: l.issue, Comp: l.comp()}
}

// comps returns g's completion-cycle tables at every width in ns (0 = the
// infinite machine), parallel to ns, with each table equal to
// FromGraph(g, ns[i]).Comp, and the number of list-scheduler runs it took.
// Widths are scheduled narrowest first on one lister, and from the first
// run that no width constrained (lister.run) on, every wider width shares
// that run's table.
func comps(g *ir.DepGraph, ns []int) (out [][]int64, runs int) {
	order := make([]int, len(ns))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ns[order[a]] < ns[order[b]] })
	out = make([][]int64, len(ns))
	var (
		l         *lister
		saturated []int64 // the table of the first unconstrained run
	)
	for _, k := range order {
		switch n := ns[k]; {
		case n <= 0:
			out[k] = FromGraph(g, 0).Comp
		case saturated != nil:
			out[k] = saturated
		default:
			if l == nil {
				l = newLister(g)
			}
			constrained := l.run(n)
			runs++
			if out[k] = l.comp(); !constrained {
				saturated = out[k]
			}
		}
	}
	return out, runs
}

// listScheduleRef is the original cycle-driven scan scheduler, kept as the
// executable specification of the selection order: tests check that
// listSchedule reproduces its schedules exactly on the whole benchmark
// suite.
func listScheduleRef(g *ir.DepGraph, numFUs int) *Schedule {
	n := len(g.Tree.Ops)
	issue := make([]int64, n)
	unscheduled := n
	npreds := make([]int, n)
	earliest := make([]int64, n)
	for i := 0; i < n; i++ {
		npreds[i] = len(g.Pred[i])
		issue[i] = -1
	}
	h := height(g)

	// ready holds ops whose predecessors are all scheduled.
	var ready []int
	for i := 0; i < n; i++ {
		if npreds[i] == 0 {
			ready = append(ready, i)
		}
	}

	var cycle int64
	for unscheduled > 0 {
		// Pick up to numFUs ready ops whose earliest cycle has arrived,
		// preferring exits (branch resolution gates when the next tree can
		// start), then greater critical-path height, then program order.
		slots := numFUs
		for slots > 0 {
			best := -1
			better := func(i, j int) bool {
				oi, oj := g.Tree.Ops[i], g.Tree.Ops[j]
				ei, ej := oi.Kind == ir.OpExit, oj.Kind == ir.OpExit
				if ei != ej {
					return ei
				}
				if h[i] != h[j] {
					return h[i] > h[j]
				}
				return oi.Seq < oj.Seq
			}
			for _, i := range ready {
				if issue[i] >= 0 || earliest[i] > cycle {
					continue
				}
				if best < 0 || better(i, best) {
					best = i
				}
			}
			if best < 0 {
				break
			}
			issue[best] = cycle
			slots--
			unscheduled--
			for _, e := range g.Succ[best] {
				if v := cycle + int64(e.Delay); v > earliest[e.To] {
					earliest[e.To] = v
				}
				npreds[e.To]--
				if npreds[e.To] == 0 {
					ready = append(ready, e.To)
				}
			}
		}
		// Drop scheduled entries from the ready list.
		w := 0
		for _, i := range ready {
			if issue[i] < 0 {
				ready[w] = i
				w++
			}
		}
		ready = ready[:w]
		cycle++
		if cycle > int64(n)*64+1024 {
			panic(fmt.Sprintf("list scheduler livelock on tree %s", g.Tree.Name))
		}
	}

	s := &Schedule{Issue: issue, Comp: make([]int64, n)}
	for i := 0; i < n; i++ {
		s.Comp[i] = issue[i] + int64(g.Latency(i))
	}
	return s
}

// Validate checks that a schedule respects all dependence delays and, for
// n > 0, the per-cycle issue-slot limit. Diagnostics name ops by their
// stable IDs (%N), not dense graph indices, so findings surfaced by the
// verifier point at the op a tree dump shows.
func Validate(g *ir.DepGraph, s *Schedule, n int) error {
	name := func(i int) string {
		if op := g.Tree.Ops[i]; op != nil {
			return fmt.Sprintf("%s %%%d", op.Kind, op.ID)
		}
		return fmt.Sprintf("op #%d", i)
	}
	perCycle := map[int64]int{}
	for i := range g.Tree.Ops {
		if s.Issue[i] < 0 {
			return fmt.Errorf("%s unscheduled", name(i))
		}
		perCycle[s.Issue[i]]++
		for _, e := range g.Succ[i] {
			if s.Issue[e.To] < s.Issue[i]+int64(e.Delay) {
				return fmt.Errorf("%s issues at cycle %d, before %s (cycle %d) + delay %d",
					name(e.To), s.Issue[e.To], name(i), s.Issue[i], e.Delay)
			}
		}
	}
	if n > 0 {
		for c, k := range perCycle {
			if k > n {
				return fmt.Errorf("cycle %d issues %d ops on %d FUs", c, k, n)
			}
		}
	}
	return nil
}
