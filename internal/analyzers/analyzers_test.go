package analyzers

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFake type-checks one synthetic single-file module and returns it.
func loadFake(t *testing.T, src string) *Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fake\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fake.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := NewLoader(dir, "fake").Load("fake")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// retargetOpSwitch points the opswitch analyzer at a synthetic enum for the
// duration of one test.
func retargetOpSwitch(t *testing.T, typeKey, sentinel string) {
	t.Helper()
	oldT, oldS := opSwitchTargets, opSwitchSentinels
	opSwitchTargets = map[string]bool{typeKey: true}
	opSwitchSentinels = map[string]bool{sentinel: true}
	t.Cleanup(func() { opSwitchTargets, opSwitchSentinels = oldT, oldS })
}

func TestOpSwitchFlagsMissingCase(t *testing.T) {
	retargetOpSwitch(t, "fake.Op", "nOps")
	pkg := loadFake(t, `package fake

type Op int

const (
	A Op = iota
	B
	C
	nOps
)

// incomplete is missing C and has no default: flagged.
func incomplete(o Op) int {
	switch o {
	case A:
		return 1
	case B:
		return 2
	}
	return 0
}

// defaulted is incomplete but says so: clean.
func defaulted(o Op) int {
	switch o {
	case A:
		return 1
	default:
		return 0
	}
}

// exhaustive covers everything but the sentinel: clean.
func exhaustive(o Op) int {
	switch o {
	case A, B:
		return 1
	case C:
		return 2
	}
	return 0
}
`)
	ds := Run(pkg, []*Analyzer{OpSwitch})
	if len(ds) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(ds), ds)
	}
	if !strings.Contains(ds[0].Msg, "missing C") {
		t.Fatalf("diagnostic %q does not name the missing constant C", ds[0].Msg)
	}
	if strings.Contains(ds[0].Msg, "nOps") {
		t.Fatalf("diagnostic %q demands the sentinel nOps", ds[0].Msg)
	}
}

func TestAtomicFieldFlagsValueUse(t *testing.T) {
	pkg := loadFake(t, `package fake

import "sync/atomic"

type stats struct {
	n     atomic.Int64
	plain int64
}

// good uses the field through methods and by address: clean.
func good(s *stats) int64 {
	s.n.Add(1)
	p := &s.n
	p.Add(1)
	s.plain++
	return s.n.Load()
}

// bad copies the atomic by value: flagged.
func bad(s *stats) int64 {
	c := s.n
	return c.Load()
}
`)
	ds := Run(pkg, []*Analyzer{AtomicField})
	if len(ds) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(ds), ds)
	}
	if !strings.Contains(ds[0].Msg, "s.n") || !strings.Contains(ds[0].Msg, "Int64") {
		t.Fatalf("diagnostic %q does not identify the field", ds[0].Msg)
	}
}

// TestSuiteCleanOnRepo runs the full suite over the packages the analyzers
// were written for: the opcode-dispatch packages and the concurrent-counter
// packages must be clean, so a regression in either invariant fails here as
// well as in CI's spdvet run.
func TestSuiteCleanOnRepo(t *testing.T) {
	root, module, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(root, module)
	for _, path := range []string{
		"specdis/internal/bcode",
		"specdis/internal/ncode",
		"specdis/internal/verify",
		"specdis/internal/exper",
	} {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range Run(pkg, All()) {
			t.Errorf("%s", d)
		}
	}
}

// TestLoaderHonorsBuildConstraints pins that the loader type-checks the
// files go build would compile: a file excluded by its build constraint
// must not redeclare the names of the file that replaces it.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":   "module fake\n\ngo 1.22\n",
		"a.go":     "package fake\n\nfunc f() int { return 1 }\n",
		"b_off.go": "//go:build never\n\npackage fake\n\nfunc f() int { return 2 }\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkg, err := NewLoader(dir, "fake").Load("fake")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want a.go alone", len(pkg.Files))
	}
}
