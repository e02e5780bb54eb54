package ir

// LatencyFunc maps an operation to its latency in cycles. The machine
// package provides implementations (Table 6-1 of the paper).
type LatencyFunc func(*Op) int

// DepEdge is a scheduling constraint issue(To) >= issue(From) + Delay.
// Delays may be negative (a memory anti-dependence only requires the store's
// memory write, at issue+latency, to land after the load's sample at issue).
type DepEdge struct {
	To    int // op index within the tree
	Delay int
}

// DepGraph holds the complete dependence graph of one tree under a given
// latency model: register flow, guard availability, register anti/output
// dependences, memory-dependence arcs, and output-stream ordering.
//
// Edges always point from a lower Seq index to a higher one, so the graph is
// a DAG and a scan in Seq order is a topological order.
type DepGraph struct {
	Tree *Tree
	Lat  LatencyFunc

	Succ [][]DepEdge // indexed by op Seq index
	Pred [][]DepEdge // Pred[i] lists edges arriving at i; Edge.To = source index

	lat []int // cached per-op latency
}

// Latency returns the cached latency of op index i.
func (g *DepGraph) Latency(i int) int { return g.lat[i] }

// guardsDisjoint reports whether two ops provably never commit together:
// identical guard registers with opposite polarity, or guards produced by a
// complementary OpBAnd / OpBAndNot pair over the same operands (the form
// produced by guard combination during if-conversion and SpD).
func guardsDisjoint(t *Tree, a, b *Op) bool {
	if a.Guard == NoReg || b.Guard == NoReg {
		return false
	}
	if a.Guard == b.Guard && a.GuardNeg != b.GuardNeg {
		return true
	}
	if a.GuardNeg || b.GuardNeg {
		return false
	}
	da := soleDef(t, a.Guard)
	db := soleDef(t, b.Guard)
	if da == nil || db == nil {
		return false
	}
	complementary := (da.Kind == OpBAnd && db.Kind == OpBAndNot) ||
		(da.Kind == OpBAndNot && db.Kind == OpBAnd)
	return complementary && len(da.Args) == 2 && len(db.Args) == 2 &&
		da.Args[0] == db.Args[0] && da.Args[1] == db.Args[1]
}

// soleDef returns the unique defining op of reg, or nil when there are zero
// or several definitions.
func soleDef(t *Tree, r Reg) *Op {
	var def *Op
	for _, op := range t.Ops {
		if op.Dest == r {
			if def != nil {
				return nil
			}
			def = op
		}
	}
	return def
}

// opReads returns the registers an op reads: arguments, call arguments, and
// its guard.
func opReads(o *Op, buf []Reg) []Reg {
	buf = buf[:0]
	buf = append(buf, o.Args...)
	buf = append(buf, o.CallArg...)
	if o.Guard != NoReg {
		buf = append(buf, o.Guard)
	}
	return buf
}

// BuildDepGraph constructs the dependence graph for t under latency model
// lat. The construction is conservative and purely local to the tree:
//
//   - flow: a use depends on every reaching definition of the register
//     (guarded definitions do not kill earlier ones), with delay equal to
//     the producer's latency;
//   - register anti (WAR): a definition may issue no earlier than prior
//     readers of the register (delay 0: reads sample at issue);
//   - register output (WAW): later definitions must complete after earlier
//     ones unless their guards are provably disjoint;
//   - memory: each MemArc contributes an edge (see ArcDelay);
//   - output stream: OpPrint ops are ordered among themselves.
//
// Each list holds the register and output-stream edges first, in
// construction order, then the arc edges in t.Arcs order.
func BuildDepGraph(t *Tree, lat LatencyFunc) *DepGraph {
	return buildDepGraph(t, lat, t.Arcs)
}

// BuildRegDepGraph constructs the arc-independent skeleton of the dependence
// graph: every edge class of BuildDepGraph except the memory-dependence
// arcs. Callers that price many arc-set variations of one tree (the SpD
// heuristic's candidate loop) build the skeleton once and add each
// variation's arc edges themselves, with ArcDelay.
func BuildRegDepGraph(t *Tree, lat LatencyFunc) *DepGraph {
	return buildDepGraph(t, lat, nil)
}

// ArcDelay returns the delay of memory arc a's edge: RAW waits for the
// store's write-back (delay = store latency), WAR only requires the
// overwrite to land after the load's sample (delay = 1 − store latency),
// and WAW orders the two writes (delay 1).
func (g *DepGraph) ArcDelay(a *MemArc) int {
	switch a.Kind {
	case DepRAW:
		return g.lat[a.From.Seq]
	case DepWAR:
		return 1 - g.lat[a.To.Seq]
	}
	return 1
}

// A regTouch links one op into the chain of ops touching a register, latest
// first: op<<2 | touchReads | touchDefines, and the chain's next node.
type regTouch struct{ op, next int32 }

const (
	touchReads   = 1
	touchDefines = 2
)

// buildDepGraph finds each op's register dependences by walking a chain of
// the earlier ops touching (reading or defining) the register, latest
// first, instead of rescanning every earlier op. The walks visit candidates
// in the order a backward scan would and stop at the same killing
// definition, so each op's Pred list comes out in the scan's order,
// followed by its arc edges; the Succ lists are then filled in the same
// order from the Pred lists.
func buildDepGraph(t *Tree, lat LatencyFunc, arcs []*MemArc) *DepGraph {
	n := len(t.Ops)
	g := &DepGraph{
		Tree: t,
		Lat:  lat,
		Succ: make([][]DepEdge, n),
		Pred: make([][]DepEdge, n),
		lat:  make([]int, n),
	}
	maxReg := NoReg
	for i, op := range t.Ops {
		g.lat[i] = lat(op)
		maxReg = max(maxReg, op.Dest, op.Guard)
		for _, r := range op.Args {
			maxReg = max(maxReg, r)
		}
		for _, r := range op.CallArg {
			maxReg = max(maxReg, r)
		}
	}

	// Per register: the head of its touch chain. Per op: how many arcs reach
	// it, where its Pred list ends in pred, and how many edges leave it.
	// arcsInto holds arc indices grouped by target, in t.Arcs order.
	nr := int(maxReg) + 1
	ints := make([]int32, nr+3*n+len(arcs))
	lastTouch := ints[:nr]
	arcN, predEnd, succN := ints[nr:nr+n], ints[nr+n:nr+2*n], ints[nr+2*n:nr+3*n]
	arcsInto := ints[nr+3*n:]
	for r := range lastTouch {
		lastTouch[r] = -1
	}
	for _, a := range arcs {
		arcN[a.To.Seq]++
	}
	var sum int32
	for i, c := range arcN {
		predEnd[i], sum = sum, sum+c // predEnd: arcsInto cursors for now
	}
	for k, a := range arcs {
		arcsInto[predEnd[a.To.Seq]] = int32(k)
		predEnd[a.To.Seq]++
	}

	touches := make([]regTouch, 0, 3*n)
	touch := func(r Reg, i int32, how int32) {
		if k := lastTouch[r]; k >= 0 && touches[k].op>>2 == i {
			touches[k].op |= how
			return
		}
		touches = append(touches, regTouch{op: i<<2 | how, next: lastTouch[r]})
		lastTouch[r] = int32(len(touches) - 1)
	}
	pred := make([]DepEdge, 0, n+n/2+len(arcs))
	addEdge := func(from, delay int) {
		pred = append(pred, DepEdge{To: from, Delay: delay})
		succN[from]++
	}

	// Ops in sibling subtrees of the control shape never commit together:
	// a definition on one path is invisible to consumers on a disjoint path
	// (their observed values are masked by their own guards), so no
	// dependence is needed between them.
	coexecute := func(a, b *Op) bool {
		return t.OnPath(a.Block, b.Block) || t.OnPath(b.Block, a.Block)
	}

	var regBuf []Reg
	lastPrint := -1
	arcAt := 0
	for i, op := range t.Ops {
		// Flow dependences for every register read.
		regBuf = opReads(op, regBuf)
		for _, r := range regBuf {
			for k := lastTouch[r]; k >= 0; k = touches[k].next {
				j := touches[k].op >> 2
				def := t.Ops[j]
				if touches[k].op&touchDefines == 0 || !coexecute(def, op) {
					continue
				}
				addEdge(int(j), g.lat[j])
				if !def.IsGuarded() {
					break // unconditional def kills earlier ones
				}
			}
		}

		// Register anti and output dependences for the destination.
		if r := op.Dest; r != NoReg {
			for k := lastTouch[r]; k >= 0; k = touches[k].next {
				j, how := touches[k].op>>2, touches[k].op&(touchReads|touchDefines)
				prev := t.Ops[j]
				if !coexecute(prev, op) {
					continue
				}
				// Anti: prior reader of r.
				if how&touchReads != 0 {
					addEdge(int(j), 0)
				}
				if how&touchDefines != 0 {
					// Output: order the write-backs, unless the two writers
					// can never commit together.
					if !guardsDisjoint(t, prev, op) {
						addEdge(int(j), max(g.lat[j]-g.lat[i]+1, 0))
					}
					if !prev.IsGuarded() {
						break
					}
				}
			}
			touch(r, int32(i), touchDefines)
		}
		for _, r := range regBuf {
			touch(r, int32(i), touchReads)
		}

		// Output-stream ordering.
		if op.Kind == OpPrint {
			if lastPrint >= 0 {
				addEdge(lastPrint, 1)
			}
			lastPrint = i
		}

		// Memory-dependence arcs into the op, after its register edges.
		for _, k := range arcsInto[arcAt : arcAt+int(arcN[i])] {
			addEdge(arcs[k].From.Seq, g.ArcDelay(arcs[k]))
		}
		arcAt += int(arcN[i])
		predEnd[i] = int32(len(pred))
	}
	g.layout(pred, predEnd, succN, arcN, arcs)
	return g
}

// layout carves the Pred lists out of pred and builds the Succ lists, each
// with its exact length as capacity, so appending to a list copies it
// rather than overwriting a neighbour. Succ[j] gets j's register edges in
// the order the Pred lists hold them, then its arc edges in arcs order.
func (g *DepGraph) layout(pred []DepEdge, predEnd, succN, arcN []int32, arcs []*MemArc) {
	var start int32
	for i, end := range predEnd {
		if end > start {
			g.Pred[i] = pred[start:end:end]
		}
		start = end
	}
	succ := make([]DepEdge, len(pred))
	for j, c := range succN {
		if c > 0 {
			g.Succ[j], succ = succ[:0:c], succ[c:]
		}
	}
	for i, in := range g.Pred {
		for _, e := range in[:len(in)-int(arcN[i])] {
			g.Succ[e.To] = append(g.Succ[e.To], DepEdge{To: i, Delay: e.Delay})
		}
	}
	for _, a := range arcs {
		g.Succ[a.From.Seq] = append(g.Succ[a.From.Seq], DepEdge{To: a.To.Seq, Delay: g.ArcDelay(a)})
	}
}

// ASAP returns the earliest legal issue cycle of each op on an unconstrained
// (infinite-resource) machine: the paper's infinite LIFE simulator model.
func (g *DepGraph) ASAP() []int {
	n := len(g.Tree.Ops)
	asap := make([]int, n)
	for i := 0; i < n; i++ {
		for _, e := range g.Pred[i] {
			if v := asap[e.To] + e.Delay; v > asap[i] {
				asap[i] = v
			}
		}
	}
	return asap
}
