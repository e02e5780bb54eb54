// Package cmd_test builds the command-line tools and exercises them end to
// end as a user would.
package cmd_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// build compiles one command into dir and returns the binary path.
func build(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

const demoProgram = `
int a[16];
int f(int i, int j, int v) {
	a[i] = v;
	return a[j] * 2;
}
void main() {
	int s = 0;
	for (int k = 0; k < 32; k = k + 1) { s = s + f(k % 16, (k + 5) % 16, k); }
	print(s);
}
`

func TestSpdcEndToEnd(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "cmd/spdc")
	src := filepath.Join(dir, "demo.mc")
	if err := os.WriteFile(src, []byte(demoProgram), 0o644); err != nil {
		t.Fatal(err)
	}

	var outputs []string
	for _, kind := range []string{"naive", "static", "spec", "perfect"} {
		out, err := exec.Command(bin, "-disamb", kind, "-fus", "5", "-mem", "6", "-stats", src).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", kind, err, out)
		}
		s := string(out)
		if !strings.Contains(s, "cycles") {
			t.Fatalf("%s output lacks cycle report:\n%s", kind, s)
		}
		// The program output (the line just before the cycle report) must be
		// identical across disambiguators; the -stats preamble differs.
		lines := strings.Split(strings.TrimSpace(strings.SplitN(s, "[", 2)[0]), "\n")
		outputs = append(outputs, lines[len(lines)-1])
		if kind == "spec" && !strings.Contains(s, "SpD applications") {
			t.Errorf("spec run lacks SpD stats:\n%s", s)
		}
	}
	for _, o := range outputs[1:] {
		if o != outputs[0] {
			t.Fatalf("disambiguators disagree: %q vs %q", o, outputs[0])
		}
	}

	// Dump and timeline modes must work and mention trees/cycles.
	out, err := exec.Command(bin, "-disamb", "spec", "-dump", "-timeline", "-quiet", src).CombinedOutput()
	if err != nil {
		t.Fatalf("dump: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "tree ") {
		t.Fatalf("dump lacks trees:\n%s", out)
	}

	// Errors: missing file and bad disambiguator.
	if _, err := exec.Command(bin, filepath.Join(dir, "nope.mc")).CombinedOutput(); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := exec.Command(bin, "-disamb", "wat", src).CombinedOutput(); err == nil {
		t.Error("bad disambiguator accepted")
	}

	// A compile error must be reported with a position.
	bad := filepath.Join(dir, "bad.mc")
	if err := os.WriteFile(bad, []byte("void main() { x = ; }"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(bin, bad).CombinedOutput()
	if err == nil {
		t.Error("bad program accepted")
	}
	if !strings.Contains(string(out), "1:") {
		t.Errorf("error lacks position:\n%s", out)
	}
}

func TestSpdbenchSingleExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := build(t, dir, "cmd/spdbench")

	out, err := exec.Command(bin, "-only", "table61").CombinedOutput()
	if err != nil {
		t.Fatalf("table61: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Branches                      2") {
		t.Fatalf("table61 wrong:\n%s", out)
	}

	out, err = exec.Command(bin, "-only", "table63", "-bench", "fft").CombinedOutput()
	if err != nil {
		t.Fatalf("table63: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "fft") || !strings.Contains(s, "TOTAL") {
		t.Fatalf("table63 wrong:\n%s", s)
	}

	out, err = exec.Command(bin, "-only", "fig64", "-bench", "quick").CombinedOutput()
	if err != nil {
		t.Fatalf("fig64: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Code size increase") {
		t.Fatalf("fig64 wrong:\n%s", out)
	}

	if out, err := exec.Command(bin, "-bench", "nope").CombinedOutput(); err == nil {
		t.Errorf("unknown benchmark accepted:\n%s", out)
	}

	// A mistyped -only name must fail, not print an empty report that
	// compares equal to another empty one.
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-only", "nosuch")
	cmd.Stderr = &stderr
	out, err = cmd.Output()
	if err == nil || len(out) > 0 {
		t.Errorf("unknown experiment accepted (err %v), stdout:\n%s", err, out)
	}
	for _, name := range []string{"table61", "table62", "table63", "fig62", "fig63", "fig64", "ext", "overhead"} {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("unknown-experiment error does not list %s:\n%s", name, stderr.String())
		}
	}
}

// TestSpdbenchTraceBackends checks the -trace flag: both backends render the
// same report, the JSON reports the backend's work correctly, and an unknown
// mode is rejected.
func TestSpdbenchTraceBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := build(t, dir, "cmd/spdbench")

	var reports []string
	for _, mode := range []string{"replay", "interp"} {
		cmd := exec.Command(bin, "-trace", mode, "-bench", "fft", "-json")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("-trace %s: %v\n%s", mode, err, out)
		}
		reports = append(reports, string(out))
		data, err := os.ReadFile(filepath.Join(dir, "BENCH_spdbench.json"))
		if err != nil {
			t.Fatal(err)
		}
		s := string(data)
		if !strings.Contains(s, `"mode": "`+mode+`"`) {
			t.Fatalf("-trace %s JSON lacks mode:\n%s", mode, s)
		}
		if mode == "replay" && (strings.Contains(s, `"replay_cells": 0`) || !strings.Contains(s, `"interp_cells": 0`)) {
			t.Fatalf("replay JSON counts wrong:\n%s", s)
		}
		if mode == "interp" && (!strings.Contains(s, `"replay_cells": 0`) || !strings.Contains(s, `"captures": 0`)) {
			t.Fatalf("interp JSON counts wrong:\n%s", s)
		}
	}
	if reports[0] != reports[1] {
		t.Fatalf("backends disagree:\n--- replay ---\n%s\n--- interp ---\n%s", reports[0], reports[1])
	}

	if out, err := exec.Command(bin, "-trace", "wat").CombinedOutput(); err == nil {
		t.Errorf("unknown -trace mode accepted:\n%s", out)
	}
}

// scalarPaths returns the path of every scalar in a JSON document, in
// document order: jq's [paths(scalars)], written ".a.b" and ".a[0]".
func scalarPaths(data []byte) ([]string, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var paths []string
	var walk func(prefix string) error
	walk = func(prefix string) error {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				key, err := dec.Token()
				if err != nil {
					return err
				}
				if err := walk(prefix + "." + key.(string)); err != nil {
					return err
				}
			}
		case json.Delim('['):
			for i := 0; dec.More(); i++ {
				if err := walk(fmt.Sprintf("%s[%d]", prefix, i)); err != nil {
					return err
				}
			}
		default:
			paths = append(paths, prefix)
			return nil
		}
		_, err = dec.Token() // the closing delimiter
		return err
	}
	return paths, walk("")
}

// TestSpdbenchJSONSchema pins BENCH_spdbench.json's schema: a -json run
// writes the committed file's key paths in the committed order, and the
// -inject and -store echoes lead their sections when set.
func TestSpdbenchJSONSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	committed, err := os.ReadFile(filepath.Join("..", "BENCH_spdbench.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := scalarPaths(committed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := build(t, dir, "cmd/spdbench")
	paths := func(args ...string) []string {
		t.Helper()
		cmd := exec.Command(bin, append(args, "-bench", "fft", "-json")...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("spdbench %v: %v\n%s", args, err, out)
		}
		data, err := os.ReadFile(filepath.Join(dir, "BENCH_spdbench.json"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := scalarPaths(data)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := paths(); !slices.Equal(got, want) {
		t.Errorf("key paths differ from the committed BENCH_spdbench.json:\ngot  %v\nwant %v", got, want)
	}
	echoed := slices.Clone(want)
	for _, e := range []struct{ before, echo string }{
		{".resilience.cell_failures", ".resilience.inject"},
		{".store.hits", ".store.dir"},
	} {
		i := slices.Index(echoed, e.before)
		if i < 0 {
			t.Fatalf("committed BENCH_spdbench.json lacks %s", e.before)
		}
		echoed = slices.Insert(echoed, i, e.echo)
	}
	if got := paths("-store", filepath.Join(dir, "art"), "-inject", "seed=1,kinds=sio"); !slices.Equal(got, echoed) {
		t.Errorf("-store/-inject key paths:\ngot  %v\nwant %v", got, echoed)
	}
}

// storeNamesSum is the SHA-256 of the artifact file names a cold
// spdbench -store run writes (DIR-relative, slash-separated, sorted, one per
// line).
const storeNamesSum = "00b89db7598f276176215ca1542c964a5663c1ff7f8f381a9cff9857996afea9"

// TestSpdbenchStoreKeys pins the artifact keys. Keys name the files on
// disk, so a change to how they are derived would silently cold-start every
// existing store: a cold -store run must write the same 77 file names.
func TestSpdbenchStoreKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := build(t, dir, "cmd/spdbench")
	art := filepath.Join(dir, "art")
	if _, stderr, code := run(t, bin, "-store", art); code != 0 {
		t.Fatalf("spdbench -store: exit %d\n%s", code, stderr)
	}
	var names []string
	err := filepath.WalkDir(art, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(art, p)
		names = append(names, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	if len(names) != 77 {
		t.Fatalf("cold run wrote %d files, want 77: %v", len(names), names)
	}
	sum := sha256.Sum256([]byte(strings.Join(names, "\n") + "\n"))
	if got := hex.EncodeToString(sum[:]); got != storeNamesSum {
		t.Errorf("artifact file names hash to %s, want %s:\n%s", got, storeNamesSum, strings.Join(names, "\n"))
	}
}

func TestSpdfmt(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "cmd/spdfmt")
	src := filepath.Join(dir, "m.mc")
	if err := os.WriteFile(src, []byte("void   main( ) {print( 1+2 );}"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, src).CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "print((1 + 2));") {
		t.Fatalf("unexpected formatting:\n%s", out)
	}
	// In-place rewrite round-trips.
	if out, err := exec.Command(bin, "-w", src).CombinedOutput(); err != nil {
		t.Fatalf("-w: %v\n%s", err, out)
	}
	again, err := exec.Command(bin, src).CombinedOutput()
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(src)
	if string(again) != string(data) {
		t.Fatal("formatting not idempotent")
	}
	// Errors are reported.
	bad := filepath.Join(dir, "bad.mc")
	os.WriteFile(bad, []byte("void main() { x = 1; }"), 0o644)
	if _, err := exec.Command(bin, bad).CombinedOutput(); err == nil {
		t.Error("semantic error accepted")
	}
}

func TestSpdlint(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "cmd/spdlint")
	src := filepath.Join(dir, "m.mc")
	if err := os.WriteFile(src, []byte(demoProgram), 0o644); err != nil {
		t.Fatal(err)
	}

	// A well-formed program is clean under every pipeline, and the summary
	// line confirms the run was not vacuous.
	out, err := exec.Command(bin, "-mem", "2,6", "-v", src).CombinedOutput()
	if err != nil {
		t.Fatalf("clean program flagged: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "1 program(s) clean") {
		t.Fatalf("missing clean summary:\n%s", out)
	}
	if !strings.Contains(string(out), "cells") || strings.Contains(string(out), "0 cells") {
		t.Fatalf("missing or vacuous stats line:\n%s", out)
	}

	// A seeded corruption makes the exit status nonzero and the diagnostic
	// names the check, the tree, and the damaged op.
	out, err = exec.Command(bin, "-mem", "2", "-corrupt", "seq", src).CombinedOutput()
	if err == nil {
		t.Fatalf("corrupted tree accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "struct/seq-order") {
		t.Fatalf("diagnostic does not name the violated check:\n%s", out)
	}
	out, err = exec.Command(bin, "-mem", "2", "-corrupt", "arc", src).CombinedOutput()
	if err == nil {
		t.Fatalf("dangling arc accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "struct/dangling-arc") {
		t.Fatalf("diagnostic does not name the violated check:\n%s", out)
	}

	// Unknown corruption kinds are rejected.
	if out, err := exec.Command(bin, "-corrupt", "wat", src).CombinedOutput(); err == nil {
		t.Errorf("unknown -corrupt kind accepted:\n%s", out)
	}
}

// loopProgram never terminates: only a fuel budget or deadline can stop it.
const loopProgram = `
void main() {
	int i = 0;
	while (1) { i = i + 1; }
}
`

// busyProgram terminates but runs long enough (hundreds of thousands of
// dynamic ops) to trip the -chaos panic trigger in every dynamic lint cell.
const busyProgram = `
int a[64];
void main() {
	int s = 0;
	for (int r = 0; r < 500; r = r + 1) {
		for (int k = 0; k < 64; k = k + 1) { a[k] = k + r; s = s + a[(k + 7) % 64]; }
	}
	print(s);
}
`

// run executes bin and returns stdout, stderr, and the exit code.
func run(t *testing.T, bin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", bin, args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

func TestSpdbenchResilience(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	bin := build(t, dir, "cmd/spdbench")

	cleanOut, cleanErr, code := run(t, bin, "-bench", "fft")
	if code != 0 || cleanErr != "" {
		t.Fatalf("clean run: exit %d, stderr %q", code, cleanErr)
	}

	// An injected panic fails its cells: FAIL rows on stdout, the failure
	// table on stderr, exit status 2.
	out, errOut, code := run(t, bin, "-bench", "fft", "-inject", "seed=42,rate=1,kinds=panic")
	if code != 2 {
		t.Fatalf("injected panic: exit %d, want 2\n%s", code, errOut)
	}
	if !strings.Contains(out, "FAIL(panic)") {
		t.Fatalf("report lacks FAIL rows:\n%s", out)
	}
	if !strings.Contains(errOut, "cell(s) failed") || !strings.Contains(errOut, "injected panic") {
		t.Fatalf("stderr lacks the failure table:\n%s", errOut)
	}

	// A bytecode-only injected panic is recovered by the tree-walker rung:
	// stdout is byte-identical to the clean run, stderr reports the
	// degradation, exit status 1.
	out, errOut, code = run(t, bin, "-bench", "fft", "-inject", "seed=7,rate=1,kinds=bpanic")
	if code != 1 {
		t.Fatalf("recovered bpanic: exit %d, want 1\n%s", code, errOut)
	}
	if out != cleanOut {
		t.Fatalf("degraded stdout differs from clean run:\n%s", out)
	}
	if !strings.Contains(errOut, "degraded but complete") {
		t.Fatalf("stderr lacks the degradation summary:\n%s", errOut)
	}

	// Trace corruption walks recapture (times=1) and interp fallback
	// (times=2); both recover with identical reports.
	for _, plan := range []string{"seed=7,rate=1,kinds=flip", "seed=7,rate=1,kinds=flip,times=2"} {
		out, errOut, code = run(t, bin, "-bench", "fft", "-inject", plan)
		if code != 1 || out != cleanOut {
			t.Fatalf("%s: exit %d, identical %v\n%s", plan, code, out == cleanOut, errOut)
		}
	}

	// A starved fuel budget fails cells with the typed class.
	_, errOut, code = run(t, bin, "-bench", "fft", "-fuel", "1000")
	if code != 2 || !strings.Contains(errOut, "fuel") {
		t.Fatalf("-fuel 1000: exit %d\n%s", code, errOut)
	}

	// An expired deadline fails cells with the typed class.
	_, errOut, code = run(t, bin, "-bench", "fft", "-deadline", "1ns")
	if code != 2 || !strings.Contains(errOut, "deadline") {
		t.Fatalf("-deadline 1ns: exit %d\n%s", code, errOut)
	}

	// Malformed fault plans are rejected.
	if _, _, code := run(t, bin, "-inject", "wat"); code != 1 {
		t.Errorf("malformed -inject accepted (exit %d)", code)
	}
}

func TestSpdlintChaosAndFuel(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir, "cmd/spdlint")
	src := filepath.Join(dir, "m.mc")
	if err := os.WriteFile(src, []byte(demoProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	loop := filepath.Join(dir, "loop.mc")
	if err := os.WriteFile(loop, []byte(loopProgram), 0o644); err != nil {
		t.Fatal(err)
	}

	// A nonterminating program is skipped on fuel exhaustion — a notice and
	// a clean exit, not a hang and not a finding.
	out, _, code := run(t, bin, "-mem", "2", "-fuel", "100000", loop)
	if code != 0 {
		t.Fatalf("nonterminating program failed lint: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "SKIP") || !strings.Contains(out, "[fuel]") {
		t.Fatalf("missing fuel-skip notice:\n%s", out)
	}

	// -chaos panic: the injected crash must surface as a finding in every
	// dynamic cell, never kill the process. The busy program runs long
	// enough for the trigger to fire in each cell.
	busy := filepath.Join(dir, "busy.mc")
	if err := os.WriteFile(busy, []byte(busyProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code = run(t, bin, "-mem", "2", "-chaos", "panic", "-v", busy)
	if code == 0 {
		t.Fatalf("-chaos panic reported clean:\n%s", out)
	}
	if !strings.Contains(out, "lint/run-failed") || !strings.Contains(out, "injected panic") {
		t.Fatalf("chaos panic not surfaced as a finding:\n%s", out)
	}

	// -chaos fuel on the tiny demo: its dynamic cells finish under even the
	// chaos budget, so the run stays clean — the point is the budget is
	// honored without breaking well-behaved programs.
	if out, _, code := run(t, bin, "-mem", "2", "-chaos", "fuel", src); code != 0 {
		t.Fatalf("-chaos fuel broke a terminating program: exit %d\n%s", code, out)
	}

	// Unknown chaos kinds are rejected.
	if _, _, code := run(t, bin, "-chaos", "wat", src); code == 0 {
		t.Error("unknown -chaos kind accepted")
	}
}
