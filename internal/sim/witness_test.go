package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"specdis/internal/bench"
	"specdis/internal/compile"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/sim"
	"specdis/internal/trace"
)

// profileRun interprets a clone of prog with profiling and recording, and
// with execution keys when keys is non-nil, on engine mode.
func profileRun(t *testing.T, prog *ir.Program, mode sim.ExecMode, keys *sim.KeyLog) (*sim.Result, *sim.Profile, *trace.Trace) {
	t.Helper()
	rec := trace.NewRecorder()
	r := &sim.Runner{Prog: prog.Clone(), SemLat: machine.Infinite(2).LatencyFunc(), Prof: sim.NewProfile(), Rec: rec, Keys: keys, Exec: mode, TierUp: 8}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, r.Prof, rec.Finish(res.Ops, res.Committed)
}

// TestKeysLeaveProfilingRunUnchanged requires a profiling run that keeps
// execution keys to produce the same result, profile and trace bytes as
// one that does not, on every engine, and its keys to account for every
// execution of the keyed trees, each witness reproducing its key's pattern.
func TestKeysLeaveProfilingRunUnchanged(t *testing.T) {
	for _, b := range bench.All() {
		prog, err := compile.Compile(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		trees := make([]*ir.Tree, prog.IndexTrees())
		for _, name := range prog.Order {
			for _, tr := range prog.Funcs[name].Trees {
				trees[tr.PIdx] = tr
			}
		}
		for _, mode := range []sim.ExecMode{sim.ExecNative, sim.ExecBytecode, sim.ExecTree} {
			wantRes, wantProf, wantTr := profileRun(t, prog, mode, nil)
			keys := &sim.KeyLog{}
			res, prof, tr := profileRun(t, prog, mode, keys)
			if !reflect.DeepEqual(res, wantRes) || !reflect.DeepEqual(prof, wantProf) ||
				!bytes.Equal(tr.Bytes(), wantTr.Bytes()) || tr.Events != wantTr.Events {
				t.Fatalf("%s/%s: keys changed the profiling run", b.Name, mode)
			}
			keyed := make([]int64, len(trees))
			for i := range keys.Keys {
				k := &keys.Keys[i]
				keyed[k.PIdx] += k.Count
				tree := trees[k.PIdx]
				run, err := sim.RunWitness(tree, &k.Witness, tree.Fn.NumRegs, prog.MemSize)
				if err != nil {
					t.Fatalf("%s/%s: tree %s on its witness: %v", b.Name, mode, tree.Name, err)
				}
				exit := 0
				for _, op := range tree.Ops[:run.Exit] {
					if op.Kind == ir.OpExit {
						exit++
					}
				}
				if exit != k.Exit || !bytes.Equal(run.Bits, k.Bits) {
					t.Fatalf("%s/%s: tree %s: witness does not reproduce its key", b.Name, mode, tree.Name)
				}
			}
			for i, n := range keyed {
				if len(trees[i].Arcs) > 0 && n != prof.Trees[i] {
					t.Fatalf("%s/%s: tree %s: keys count %d executions, the profile %d", b.Name, mode, trees[i].Name, n, prof.Trees[i])
				}
			}
		}
	}
}
