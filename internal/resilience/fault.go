package resilience

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// FaultKind names one fault the injection harness can manufacture in an
// evaluation cell. Each kind exists to prove one recovery rung end to end.
type FaultKind uint8

const (
	// FaultNone injects nothing.
	FaultNone FaultKind = iota
	// FaultPanic panics once the cell's interpretation crosses N dynamic
	// ops, on every backend — proves panic isolation and that the bounded
	// bcode→tree retry gives up instead of looping.
	FaultPanic
	// FaultBCodePanic panics like FaultPanic but only on the bytecode
	// engine — proves the bcode→tree degradation rung recovers the cell.
	FaultBCodePanic
	// FaultFuel shrinks the cell's fuel budget to N dynamic ops — proves
	// the typed fuel abort.
	FaultFuel
	// FaultFlipTrace XORs a byte of the cell's captured trace before
	// replay, for Times consecutive captures — Times=1 proves the
	// replay→recapture rung, Times>=2 pushes through to the interp rung.
	FaultFlipTrace
	// FaultDropSchedule deletes one tree's schedule from every pricing plan
	// of the cell — proves the typed missing-schedule error path.
	FaultDropSchedule
	// FaultStoreIO injects I/O faults into the persistent artifact store's
	// disk reads (short reads and transient open errors, as opposed to
	// FaultFlipTrace's in-memory bit-flips) — proves the store's
	// drop→recompute→repair rung. It is armed at the store layer
	// (store.Store.ArmIOFaults), not dealt per evaluation cell, so it is
	// never in ParsePlan's default kinds: naming it is an explicit opt-in.
	FaultStoreIO
)

var faultNames = map[FaultKind]string{
	FaultNone:         "none",
	FaultPanic:        "panic",
	FaultBCodePanic:   "bpanic",
	FaultFuel:         "fuel",
	FaultFlipTrace:    "flip",
	FaultDropSchedule: "drop",
	FaultStoreIO:      "sio",
}

func (k FaultKind) String() string {
	if s, ok := faultNames[k]; ok {
		return s
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is one cell's injected fault: the kind plus its parameter — the
// triggering op count (FaultPanic, FaultBCodePanic), the budget (FaultFuel),
// or the byte-offset seed (FaultFlipTrace, applied modulo the trace size).
type Fault struct {
	Kind FaultKind
	N    int64
	// Times is how many consecutive attempts the fault corrupts
	// (FaultFlipTrace only; minimum 1).
	Times int
}

// FaultPlan deterministically assigns faults to evaluation cells. The same
// (Seed, Rate, Kinds) triple over the same grid always selects the same
// cells with the same faults, so chaos runs are reproducible and CI can pin
// their exact degradation counts.
type FaultPlan struct {
	// Seed drives cell selection and parameter derivation.
	Seed uint64
	// Rate is the fraction of cells faulted, in (0, 1]. Zero disables
	// seeded selection (only Cells entries fire).
	Rate float64
	// Kinds are the fault kinds dealt, round-robin by cell hash.
	Kinds []FaultKind
	// FlipTimes is the Times parameter of dealt FaultFlipTrace faults
	// (default 1: the recapture rung recovers the cell).
	FlipTimes int
	// Cells, when non-nil, bypasses seeded selection entirely: only the
	// listed cells (keyed by CellName) are faulted, exactly as specified.
	// Used by tests to target one rung precisely.
	Cells map[string]Fault
}

// CellKinds returns the plan's kinds minus store-level ones (FaultStoreIO):
// the kinds dealt per evaluation cell. Store-level kinds are armed once on
// the artifact store instead (store.Store.ArmIOFaults), so they never shift
// the per-cell round-robin deal of an existing plan.
func (p *FaultPlan) CellKinds() []FaultKind {
	if p == nil {
		return nil
	}
	kinds := make([]FaultKind, 0, len(p.Kinds))
	for _, k := range p.Kinds {
		if k != FaultStoreIO {
			kinds = append(kinds, k)
		}
	}
	return kinds
}

// CellPlan returns the plan to thread into the evaluation runners: p when
// it deals per-cell faults (a kind besides FaultStoreIO, or Cells), nil
// otherwise. A runner with a non-nil plan bypasses the artifact store per
// cell, which would leave a store-level kind nothing to fault.
func (p *FaultPlan) CellPlan() *FaultPlan {
	if p == nil || (len(p.CellKinds()) == 0 && p.Cells == nil) {
		return nil
	}
	return p
}

// StoreIO reports whether the plan names the store I/O fault kind.
func (p *FaultPlan) StoreIO() bool {
	if p == nil {
		return false
	}
	for _, k := range p.Kinds {
		if k == FaultStoreIO {
			return true
		}
	}
	return false
}

// For returns the fault to inject in the named cell (FaultNone for most).
func (p *FaultPlan) For(cell string) Fault {
	if p == nil {
		return Fault{}
	}
	if p.Cells != nil {
		f := p.Cells[cell]
		if f.Kind == FaultFlipTrace && f.Times < 1 {
			f.Times = 1
		}
		return f
	}
	kinds := p.CellKinds()
	if p.Rate <= 0 || len(kinds) == 0 {
		return Fault{}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", p.Seed, cell)
	sum := h.Sum64()
	// Three independent-enough fields carved out of one 64-bit hash: the
	// selection draw, the kind index, and the parameter.
	if float64(sum%1_000_000)/1_000_000 >= p.Rate {
		return Fault{}
	}
	f := Fault{Kind: kinds[(sum>>20)%uint64(len(kinds))]}
	param := int64((sum >> 32) % 4096)
	switch f.Kind {
	case FaultPanic, FaultBCodePanic:
		f.N = 1 + param // trigger op: early enough to fire in any real cell
	case FaultFuel:
		f.N = 1 + param // budget: tiny, exhausted by any real cell
	case FaultFlipTrace:
		f.N = param // byte-offset seed, applied mod trace size
		f.Times = p.FlipTimes
		if f.Times < 1 {
			f.Times = 1
		}
	case FaultDropSchedule:
		f.N = param // dropped entry index, applied mod entry count
	}
	return f
}

// ParsePlan parses the CLI fault-plan syntax:
//
//	seed=42,rate=0.3,kinds=panic+fuel+flip+drop,times=2
//
// Fields may appear in any order; kinds are '+'-separated FaultKind names
// (panic, bpanic, fuel, flip, drop, sio). Defaults: seed 1, rate 1.0,
// times 1, and all per-cell kinds when none are given — the store-level sio
// kind is never in the default deal (it would not change any cell anyway,
// and keeping the default list fixed keeps historical chaos pins stable);
// it must be named explicitly.
func ParsePlan(s string) (*FaultPlan, error) {
	p := &FaultPlan{Seed: 1, Rate: 1.0, FlipTimes: 1}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("resilience: bad fault-plan field %q (want key=value)", field)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("resilience: bad seed %q: %v", v, err)
			}
			p.Seed = n
		case "rate":
			r, err := strconv.ParseFloat(v, 64)
			if err != nil || r <= 0 || r > 1 {
				return nil, fmt.Errorf("resilience: bad rate %q (want a fraction in (0, 1])", v)
			}
			p.Rate = r
		case "times":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("resilience: bad times %q (want an integer >= 1)", v)
			}
			p.FlipTimes = n
		case "kinds":
			for _, name := range strings.Split(v, "+") {
				kind, err := parseKind(name)
				if err != nil {
					return nil, err
				}
				p.Kinds = append(p.Kinds, kind)
			}
		default:
			return nil, fmt.Errorf("resilience: unknown fault-plan field %q", k)
		}
	}
	if len(p.Kinds) == 0 {
		p.Kinds = []FaultKind{FaultPanic, FaultBCodePanic, FaultFuel, FaultFlipTrace, FaultDropSchedule}
	}
	return p, nil
}

func parseKind(name string) (FaultKind, error) {
	for k, s := range faultNames {
		if s == name && k != FaultNone {
			return k, nil
		}
	}
	var known []string
	for k, s := range faultNames {
		if k != FaultNone {
			known = append(known, s)
		}
	}
	sort.Strings(known)
	return FaultNone, fmt.Errorf("resilience: unknown fault kind %q (want one of %s)", name, strings.Join(known, ", "))
}

// String renders the plan back in ParsePlan syntax.
func (p *FaultPlan) String() string {
	if p == nil {
		return ""
	}
	kinds := make([]string, len(p.Kinds))
	for i, k := range p.Kinds {
		kinds[i] = k.String()
	}
	return fmt.Sprintf("seed=%d,rate=%g,kinds=%s,times=%d", p.Seed, p.Rate, strings.Join(kinds, "+"), p.FlipTimes)
}
