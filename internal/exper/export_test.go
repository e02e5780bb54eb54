package exper

import (
	"specdis/internal/bench"
	"specdis/internal/ir"
)

// Base exposes the runner's compiled base program of b to tests: the
// program every preparation of b clones.
func (r *Runner) Base(b *bench.Benchmark) (*ir.Program, error) { return r.compiled(b) }
