package disamb_test

import (
	"testing"

	"specdis/internal/bcode"
	"specdis/internal/disamb"
	"specdis/internal/ir"
	"specdis/internal/machine"
	"specdis/internal/ncode"
	"specdis/internal/sched"
	"specdis/internal/verify"
)

// validateCompiled is the layers-4/5 oracle shared by the tier-differential
// fuzzers: beyond demanding that the execution tiers agree with each other,
// every prepared program's compiled artifacts must pass the translation
// validator, and a finite-machine list schedule of every tree must survive
// the soundness audit. A fuzzer-grown program that compiles cleanly but
// trips a validator is a compiler (or validator) bug the differential
// checks alone could miss — both tiers can agree on wrong metadata.
func validateCompiled(t *testing.T, p *disamb.Prepared, src string) {
	t.Helper()
	lat := machine.Infinite(2).LatencyFunc()
	for _, name := range p.Prog.Order {
		for _, tr := range p.Prog.Funcs[name].Trees {
			if bp, err := bcode.Compile(tr); err == nil {
				if fs := verify.CheckBCode(tr, bp); len(fs) > 0 {
					t.Fatalf("%s: bytecode of %s/%s fails translation validation: %v\n%s", p.Kind, name, tr.Name, fs, src)
				}
			}
			if np, err := ncode.Compile(tr); err == nil {
				if fs := verify.CheckNCode(tr, np); len(fs) > 0 {
					t.Fatalf("%s: native code of %s/%s fails translation validation: %v\n%s", p.Kind, name, tr.Name, fs, src)
				}
			}
			const nFUs = 3
			g := ir.BuildDepGraph(tr, lat)
			s := sched.FromGraph(g, nFUs)
			if fs := verify.AuditSchedule(g, s, nFUs); len(fs) > 0 {
				t.Fatalf("%s: schedule of %s/%s fails soundness audit: %v\n%s", p.Kind, name, tr.Name, fs, src)
			}
		}
	}
}
