package disamb_test

import (
	"strings"
	"testing"

	"specdis/internal/disamb"
	"specdis/internal/machine"
	"specdis/internal/spd"
)

// fuzzSeeds is the seed corpus for FuzzDisamb. The hand-written entries
// concentrate on guarded stores — stores under if conditions and through
// ambiguous subscripts, the shapes SpD must guard correctly — plus WAR and
// forwarding-RAW patterns, long straight-line chains of unguarded
// const/ALU/load runs for the native tier's pair fusion, and guard-dense
// trees where fusion must stop at every guarded op; the generated tail adds
// structural variety.
var fuzzSeeds = []string{
	// Guarded store through an ambiguous subscript (the paper's core shape).
	`int a[16]; int b[16];
void main() {
	for (int k = 0; k < 48; k = k + 1) {
		int i = k % 16;
		int j = (k * 7 + 3) % 16;
		a[i] = a[i] + 3;
		int v = b[j];
		if (v > 8) { a[j] = v; }
		b[i] = v + a[j];
	}
	int s = 0;
	for (int k = 0; k < 16; k = k + 1) { s = (s * 31 + a[k] + b[k]) % 1000003; }
	print(s);
}`,
	// Forwarding RAW: store then load of a maybe-equal address.
	`int a[16];
int f(int i, int j, int v) {
	a[i] = v * 3;
	return a[j] * 5 + 7;
}
void main() {
	int s = 0;
	for (int k = 0; k < 64; k = k + 1) { s = s + f(k % 16, (k * 5) % 16, k); }
	print(s);
}`,
	// WAR: ambiguous load hoisted over a later store.
	`int a[16];
void main() {
	int s = 0;
	for (int k = 0; k < 64; k = k + 1) {
		int j = (k * 3 + 1) % 16;
		int v = a[j];
		a[k % 16] = k;
		s = (s + v) % 65536;
	}
	print(s);
}`,
	// Nested guards: a store guarded by two conditions.
	`int a[8]; int b[8];
void main() {
	for (int k = 0; k < 40; k = k + 1) {
		int i = k % 8;
		int j = (k + 3) % 8;
		if (a[i] < 20) {
			if (b[j] % 2 == 0) { a[j] = a[j] + b[i]; }
		}
		b[i] = b[i] + 1;
	}
	int s = 0;
	for (int k = 0; k < 8; k = k + 1) { s = s * 13 + a[k] - b[k]; }
	print(s);
}`,
	// Fuel path: terminates, but far beyond the fuzzers' small op budget —
	// both backends must abort with the same typed budget error.
	`void main() {
	int i = 0;
	while (i < 3000000) { i = i + 1; }
	print(i);
}`,
	// Long straight-line chains: unguarded const/ALU/load runs that the
	// native tier tiles into pair superinstructions, mixing integer, float,
	// shift/mask and array-read elements inside one tree.
	`int a[16]; float f[4] = {1.5, 2.25, -3.5, 4.0};
int chain(int k) {
	int x = k * 3 + 7;
	int y = x * 5 - k;
	int z = (x + y) * 2 + 11;
	int w = z - x * 4 + y;
	float g = f[k % 4] * 2.5 + 1.25;
	float h = g * g - f[(k + 1) % 4];
	int m = a[k % 16] + z;
	int n = a[(k + 5) % 16] * 3 - w;
	return ((x + y + z + w + m + n) % 4096) + int(h * g) % 97;
}
void main() {
	int s = 0;
	for (int k = 0; k < 96; k = k + 1) { s = (s * 17 + chain(k)) % 1000003; a[k % 16] = s % 251; }
	print(s);
}`,
	// Guard-dense tree: ambiguous stores under alternating conditions split
	// the straight-line runs, so no superinstruction may cover a guarded op
	// and fusion is confined to the short runs between guards.
	`int a[12]; int b[12];
void main() {
	for (int k = 0; k < 72; k = k + 1) {
		int i = k % 12;
		int j = (k * 7 + 5) % 12;
		int u = a[i] * 3 + k;
		int v = b[j] - u % 9;
		if (u % 2 == 0) { a[j] = u + 1; }
		int w = u * v + a[i];
		if (v > 4) { b[i] = w % 127; }
		if (w % 3 == 1) { a[i] = a[i] + b[j]; }
		b[j] = (u + v + w) % 251;
	}
	int s = 0;
	for (int k = 0; k < 12; k = k + 1) { s = (s * 29 + a[k] * 3 + b[k]) % 1000003; }
	print(s);
}`,
}

// FuzzDisamb is the native differential fuzzer: any input that compiles as
// a MiniC program must print the same output under all four disambiguator
// pipelines, and every pipeline stage must satisfy the full internal/verify
// battery (Options.Verify runs verify.CheckProgram — and through it
// verify.CheckTree on every tree — plus the speculation-safety checks after
// each stage). A verifier finding or an output divergence is a crash; inputs
// that fail to compile, or blow the small operation budget, are skipped.
func FuzzDisamb(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(newProgGen(seed).generate())
	}
	models := []machine.Model{machine.Infinite(2), machine.New(3, 6)}
	params := spd.DefaultParams()
	params.MinGain = 0.01 // transform aggressively to stress the machinery
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			t.Skip("oversized input")
		}
		var ref string
		haveRef := false
		for _, kind := range disamb.Kinds {
			p, err := disamb.PrepareOpts(src, disamb.Options{
				Kind:   kind,
				MemLat: 2,
				SpD:    params,
				Verify: true,
				Interp: disamb.Interp{MaxOps: 2_000_000},
			})
			if err != nil {
				if strings.Contains(err.Error(), "verif") {
					t.Fatalf("%s: %v\n%s", kind, err, src)
				}
				if kind == disamb.Naive || strings.Contains(err.Error(), "budget") {
					t.Skip() // does not compile or does not terminate; uninteresting
				}
				// NAIVE handled this program; a refinement must too.
				t.Fatalf("%s failed on a program NAIVE handled: %v\n%s", kind, err, src)
			}
			res, err := disamb.Measure(p, models)
			if err != nil {
				// Runaway programs exceed the budget; SPEC executes extra
				// (duplicated) ops, so a refinement may trip it even when
				// NAIVE squeaked under.
				if strings.Contains(err.Error(), "budget") {
					t.Skip()
				}
				t.Fatalf("%s measure: %v\n%s", kind, err, src)
			}
			if !haveRef {
				ref, haveRef = res.Output, true
			} else if res.Output != ref {
				t.Fatalf("%s output %q, want %q\n%s", kind, res.Output, ref, src)
			}
		}
	})
}
