package analyzers

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the import path ("specdis/internal/bcode").
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module using only the
// standard library: imports inside the module resolve recursively from
// source, everything else goes to the compiler's default importer. This is
// what lets spdvet run with an empty module cache — the tool never shells
// out and never needs golang.org/x/tools.
type Loader struct {
	// Fset positions every package this loader touches.
	Fset    *token.FileSet
	root    string // module root directory
	module  string // module path from go.mod
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool // import-cycle guard
}

// NewLoader returns a loader for the module rooted at root with the given
// module path.
func NewLoader(root, module string) *Loader {
	return &Loader{
		Fset:    token.NewFileSet(),
		root:    root,
		module:  module,
		std:     importer.Default(),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load parses and type-checks the package with the given import path
// (which must be the module path or below it). Results are memoized.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.root
	if path != l.module {
		rel, ok := strings.CutPrefix(path, l.module+"/")
		if !ok {
			return nil, fmt.Errorf("%s is outside module %s", path, l.module)
		}
		dir = filepath.Join(l.root, filepath.FromSlash(rel))
	}
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// Import implements types.Importer over the loader: module-internal paths
// load from source, the rest from the toolchain's importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// parseDir parses every non-test Go file of one directory that the host's
// build would compile (build constraints and GOOS/GOARCH file-name
// suffixes), in name order so type-checking (and therefore diagnostics) is
// deterministic.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
