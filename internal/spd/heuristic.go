package spd

import (
	"fmt"
	"slices"

	"specdis/internal/ir"
	"specdis/internal/verify"
)

// Params are the guidance-heuristic knobs of Figure 5-1.
type Params struct {
	// MaxExpansion bounds per-tree code growth: SpD stops when the tree
	// exceeds MaxExpansion × its original size.
	MaxExpansion float64
	// MinGain is the per-execution predicted-gain threshold, in cycles.
	MinGain float64
	// AssumedAliasProb is used for arcs with no profiled alias probability
	// and as the weight of the conservative scenario in the tree-time
	// estimate (the paper assumes 0.1, §5.3).
	AssumedAliasProb float64
	// MaxAliasProb: arcs measured to alias more often than this are not
	// worth speculating on.
	MaxAliasProb float64
	// Forwarding enables store-to-load forwarding on the alias path of RAW
	// transforms (Figure 4-4's direct forward).
	Forwarding bool
	// MaxIterationsPerTree is a safety bound on heuristic iterations.
	MaxIterationsPerTree int
	// Verify runs the structural and speculation-safety checkers over every
	// tree immediately after each applied transformation (debug mode). The
	// first violation is recorded in Result.VerifyErr.
	Verify bool
}

// DefaultParams returns the configuration used in the experiments.
func DefaultParams() Params {
	return Params{
		MaxExpansion:         2.0,
		MinGain:              0.25,
		AssumedAliasProb:     0.1,
		MaxAliasProb:         0.5,
		Forwarding:           true,
		MaxIterationsPerTree: 64,
	}
}

// Profile supplies the path-probability information the heuristic needs
// (sim.Profile implements it).
type Profile interface {
	ExitProb(t *ir.Tree, e *ir.Op) float64
	TreeExecCount(t *ir.Tree) int64
}

// Application records one SpD application.
type Application struct {
	Tree  *ir.Tree
	Kind  ir.DepKind
	Gain  float64 // predicted per-execution gain, cycles
	Added int     // operations added
	// Pairs are the original/duplicate op pairs this application created,
	// for the speculation-safety checker.
	Pairs []verify.SpecPair
}

// Result summarizes a whole-program SpD pass.
type Result struct {
	Apps          []Application
	RAW, WAR, WAW int // application counts by dependence type (Table 6-3)
	AddedOps      int
	// VerifyErr holds the first invariant violation found by the Verify
	// debug hook (nil when Verify was off or everything checked out).
	VerifyErr error
}

// TreePairs collects the recorded original/duplicate pairs per tree.
func (r *Result) TreePairs() map[*ir.Tree][]verify.SpecPair {
	m := map[*ir.Tree][]verify.SpecPair{}
	for _, a := range r.Apps {
		if len(a.Pairs) > 0 {
			m[a.Tree] = append(m[a.Tree], a.Pairs...)
		}
	}
	return m
}

// verifyTree runs the post-transform checkers over one tree and folds the
// findings into res.VerifyErr (first violation wins).
func verifyTree(t *ir.Tree, pairs []verify.SpecPair, res *Result) {
	if res.VerifyErr != nil {
		return
	}
	fs := verify.CheckTree(t)
	fs = append(fs, verify.CheckSpecTree(t)...)
	fs = append(fs, verify.CheckSpecPairs(t, pairs)...)
	if len(fs) > 0 {
		res.VerifyErr = fmt.Errorf("spd: tree %s after transform: %s", t.Name, fs[0])
	}
}

// Count returns the application count for one dependence kind.
func (r *Result) Count(k ir.DepKind) int {
	switch k {
	case ir.DepRAW:
		return r.RAW
	case ir.DepWAR:
		return r.WAR
	}
	return r.WAW
}

// Transform runs the guidance heuristic over every profiled tree of the
// program. lat fixes the operation latencies (memory latency matters: longer
// latencies surface more profitable aliases, Table 6-3).
func Transform(p *ir.Program, prof Profile, lat ir.LatencyFunc, params Params) *Result {
	res := &Result{}
	for _, name := range p.Order {
		for _, t := range p.Funcs[name].Trees {
			if prof.TreeExecCount(t) == 0 {
				continue
			}
			specDisambig(t, prof, lat, params, res)
		}
	}
	return res
}

// exitProbs captures the profiled exit probabilities by exit order, so they
// can be applied to clones of the tree (whose exit ops are fresh pointers).
func exitProbs(t *ir.Tree, prof Profile) []float64 {
	exits := t.Exits()
	probs := make([]float64, len(exits))
	for i, e := range exits {
		probs[i] = prof.ExitProb(t, e)
	}
	return probs
}

// shape is what pricing needs of a tree's ops, which stay fixed while only
// its arcs vary: the register dependence skeleton, and per exit the non-exit
// ops on its path (Tree.OnPath), likely ones (SpecSide <= 0) first: exit
// k's are path[ends[2k]:ends[2k+1]], then the rest up to ends[2k+2].
type shape struct {
	g           *ir.DepGraph
	exits, path []int32
	ends        []int32
}

func (s *shape) build(t *ir.Tree, lat ir.LatencyFunc) {
	s.g = ir.BuildRegDepGraph(t, lat)
	s.exits, s.path, s.ends = s.exits[:0], s.path[:0], append(s.ends[:0], 0)
	for _, ex := range t.Exits() {
		s.exits = append(s.exits, int32(ex.Seq))
		for _, likely := range []bool{true, false} {
			for _, op := range t.Ops {
				if op.Kind != ir.OpExit && (op.SpecSide <= 0) == likely && t.OnPath(op.Block, ex.Block) {
					s.path = append(s.path, int32(op.Seq))
				}
			}
			s.ends = append(s.ends, int32(len(s.path)))
		}
	}
}

// arcEdge is an arc's edge into an op: its source, delay and arc index.
type arcEdge struct{ from, delay, arc int32 }

// pricer prices arc subsets of one tree: the heuristic's expected
// per-execution time on the infinite machine, weighting each exit's path
// time by its profiled probability and mixing the likely all-no-alias
// scenario with the fully conservative one at the assumed alias
// probability q. A price is one ASAP pass over the shape's skeleton plus
// the edges of the arcs not marked in drop. One pricer serves a whole
// specDisambig call, reusing its buffers.
type pricer struct {
	probs []float64 // profiled exit probabilities, in exit order
	q     float64
	*shape
	arcs     []*ir.MemArc // the loaded tree's arcs
	in       []arcEdge    // arc edges by target: op i's are in[inAt[i]:inAt[i+1]]
	inAt     []int32
	drop     []bool // per arc: left out of the subset being priced
	cur, tmp []int  // ASAP with every arc; scratch
}

// load prepares the pricer for t's arcs over sh, the shape of t's ops, and
// returns the expected time with every arc.
func (p *pricer) load(t *ir.Tree, sh *shape) float64 {
	n := len(t.Ops)
	p.shape, p.arcs = sh, append(p.arcs[:0], t.Arcs...)
	p.in = append(p.in[:0], make([]arcEdge, len(t.Arcs))...)
	p.inAt = append(p.inAt[:0], make([]int32, n+1)...)
	for _, a := range t.Arcs {
		p.inAt[a.To.Seq]++
	}
	for i := 1; i <= n; i++ {
		p.inAt[i] += p.inAt[i-1]
	}
	for k := len(t.Arcs) - 1; k >= 0; k-- {
		a := t.Arcs[k]
		p.inAt[a.To.Seq]--
		p.in[p.inAt[a.To.Seq]] = arcEdge{int32(a.From.Seq), int32(p.g.ArcDelay(a)), int32(k)}
	}
	p.drop = append(p.drop[:0], make([]bool, len(t.Arcs))...)
	p.cur = append(p.cur[:0], make([]int, n)...)
	p.tmp = append(p.tmp[:0], make([]int, n)...)
	e := p.price(0)
	p.cur, p.tmp = p.tmp, p.cur
	return e
}

// price returns the expected time without the arcs marked in drop, all of
// which target ops at or after from. Edges point from a lower Seq to a
// higher one, so the ops before from keep their ASAP times in cur.
func (p *pricer) price(from int) float64 {
	asap := p.tmp
	copy(asap, p.cur[:from])
	for i := from; i < len(asap); i++ {
		v := 0
		for _, e := range p.g.Pred[i] {
			v = max(v, asap[e.To]+e.Delay)
		}
		for _, e := range p.in[p.inAt[i]:p.inAt[i+1]] {
			if !p.drop[e.arc] {
				v = max(v, asap[e.from]+int(e.delay))
			}
		}
		asap[i] = v
	}
	// A path completes at its latest write-back, and no earlier than its
	// exit resolves; the likely scenario leaves out alias-side ops.
	var e float64
	for k, ex := range p.exits {
		likely := asap[ex] + p.g.Latency(int(ex))
		for _, i := range p.path[p.ends[2*k]:p.ends[2*k+1]] {
			likely = max(likely, asap[i]+p.g.Latency(int(i)))
		}
		full := likely
		for _, i := range p.path[p.ends[2*k+1]:p.ends[2*k+2]] {
			full = max(full, asap[i]+p.g.Latency(int(i)))
		}
		e += p.probs[k] * ((1-p.q)*float64(likely) + p.q*float64(full))
	}
	return e
}

// moveToEnd stably moves the arcs in the set to the end of t.Arcs. Later
// iterations visit candidates in t.Arcs order, which breaks ties between
// equal gains, so the order must stay what it always was.
func moveToEnd(t *ir.Tree, in func(*ir.MemArc) bool) {
	kept, moved := t.Arcs[:0], []*ir.MemArc(nil)
	for _, a := range t.Arcs {
		if in(a) {
			moved = append(moved, a)
		} else {
			kept = append(kept, a)
		}
	}
	copy(t.Arcs[len(kept):], moved)
}

// specDisambig is the Figure 5-1 loop: repeatedly apply SpD to the ambiguous
// alias with the highest predicted gain until the tree hits its expansion
// bound or no alias clears MinGain. Each iteration prices the ceiling and
// every candidate as arc subsets over one shape of the tree's ops; the best
// candidate is then applied to a clone, whose price gates the application.
func specDisambig(t *ir.Tree, prof Profile, lat ir.LatencyFunc, params Params, res *Result) {
	maxSize := int(float64(t.Size()) * params.MaxExpansion)
	skip := map[*ir.MemArc]bool{}
	p := &pricer{probs: exitProbs(t, prof), q: params.AssumedAliasProb}
	// own is t's shape once built; spare takes the gate clone's, which
	// becomes t's when t gets the same transform.
	own, spare, built := &shape{}, &shape{}, false
	var treePairs []verify.SpecPair // cumulative, for the Verify debug hook

	groupable := func(a *ir.MemArc) bool {
		return a.Ambiguous && a.AliasProb(params.AssumedAliasProb) <= params.MaxAliasProb
	}
	eligible := func(a *ir.MemArc) bool {
		return groupable(a) && !skip[a] &&
			a.To.SpecSide <= 0 // never speculate consumers of an alias copy
	}

	for iter := 0; iter < params.MaxIterationsPerTree; iter++ {
		if t.Size() >= maxSize {
			return
		}
		// With nothing eligible the ceiling below is zero and no candidate
		// exists, so the tree is done before anything is built.
		if !slices.ContainsFunc(t.Arcs, eligible) {
			return
		}
		// The tree's ops are fixed for the whole iteration (only its arc set
		// varies below), so every arc subset is priced over one shape.
		if !built {
			own.build(t, lat)
			built = true
		}
		cur := p.load(t, own)

		// Ceiling: the expected time if every remaining eligible ambiguous
		// dependence were resolved in speculation's favour. When even that
		// would not clear MinGain, the tree is done. This keeps cascades
		// moving through mutually blocking arcs (parallel chains where no
		// single removal shows gain) exactly as the paper's optimistic
		// Gain() does, while still stopping on hopeless trees.
		from := len(t.Ops)
		for k, a := range p.arcs {
			if p.drop[k] = eligible(a); p.drop[k] {
				from = min(from, a.To.Seq)
			}
		}
		ideal := p.price(from)
		clear(p.drop)
		moveToEnd(t, eligible)
		ceiling := cur - ideal
		if ceiling < params.MinGain {
			return
		}

		// Prefer the tight arc whose same-target group removal shows the
		// largest individual gain; with parallel chains all group gains can
		// be zero, in which case any tight eligible arc advances the
		// cascade (earliest target first, for determinism).
		var best *ir.MemArc
		bestGain := -1.0
		for _, a := range slices.Clone(t.Arcs) {
			// Only arcs tight under the ASAP schedule can lie on a critical
			// path: the paper's CriticalAlias pre-filter.
			if !eligible(a) || p.cur[a.To.Seq] != p.cur[a.From.Seq]+p.g.ArcDelay(a) {
				continue
			}
			pa := a.AliasProb(params.AssumedAliasProb)
			group := func(b *ir.MemArc) bool {
				return b.To == a.To && b.Kind == a.Kind && groupable(b)
			}
			into := p.in[p.inAt[a.To.Seq]:p.inAt[a.To.Seq+1]]
			for _, e := range into {
				p.drop[e.arc] = group(p.arcs[e.arc])
			}
			without := p.price(a.To.Seq)
			for _, e := range into {
				p.drop[e.arc] = false
			}
			moveToEnd(t, group)
			gn := (1 - pa) * (cur - without)
			if gn > bestGain ||
				(gn == bestGain && best != nil && a.To.Seq < best.To.Seq) {
				best, bestGain = a, gn
			}
		}
		if best == nil {
			return
		}
		if bestGain < params.MinGain {
			bestGain = ceiling // the cascade's promise, not this step's
		}
		bestIdx := slices.Index(t.Arcs, best)

		// Gate: tentatively transform a clone; refuse arcs whose realistic
		// post-transform estimate is clearly worse than the status quo.
		clone := t.Clone()
		if _, err := Apply(clone, clone.Arcs[bestIdx], params.Forwarding); err != nil {
			skip[best] = true
			continue
		}
		spare.build(clone, lat)
		if after := p.load(clone, spare); after > cur+0.25 {
			skip[best] = true
			continue
		}

		info, err := ApplyInfo(t, best, params.Forwarding)
		if err != nil {
			// The clone accepted this transform, so the original must too;
			// treat a refusal defensively.
			skip[best] = true
			built = false
			continue
		}
		// The same transform of the same tree: t's ops now match the clone's.
		own, spare = spare, own
		// A RAW arc survives on the alias copy when forwarding is not
		// possible; it is handled now either way, so never revisit it.
		skip[best] = true
		res.Apps = append(res.Apps, Application{Tree: t, Kind: best.Kind, Gain: bestGain, Added: info.Added, Pairs: info.Pairs})
		res.AddedOps += info.Added
		if params.Verify {
			treePairs = append(treePairs, info.Pairs...)
			verifyTree(t, treePairs, res)
		}
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
