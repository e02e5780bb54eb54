package ncode

import (
	"specdis/internal/bcode"
	"specdis/internal/ir"
)

// Cache memoizes compiled closure chains by execution content
// (ir.AppendExecKey) — the bytecode tier's LRU (bcode.LRU) around the native
// compiler: clones of one program share a compiled artifact, and a tree
// mutated after compilation re-keys and recompiles. Counters are the shared
// bcode.Counters type so one counter set can report whichever tier a sweep
// ran (Instrs counts emitted closure steps here). Safe for concurrent use.
type Cache = bcode.LRU[Prog]

// NewCache returns an empty cache. ctrs may be nil.
func NewCache(ctrs *bcode.Counters) *Cache { return bcode.NewLRU(ctrs, compileCounted) }

// compileCounted is the native tier's compile function for the LRU.
func compileCounted(t *ir.Tree, ctrs *bcode.Counters) *Prog {
	p, err := Compile(t)
	if err != nil {
		return nil
	}
	if ctrs != nil {
		ctrs.Compiled.Add(1)
		ctrs.Instrs.Add(int64(p.Steps))
		ctrs.Steps.Add(int64(p.Steps))
		ctrs.Fused.Add(int64(p.Fused))
	}
	return p
}
