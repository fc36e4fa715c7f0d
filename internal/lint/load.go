package lint

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

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("pornweb/internal/core")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files, sorted by file name
	Types *types.Package
	Info  *types.Info

	root string // module root for relFile
}

// relFile renders filename relative to the module root so findings are
// stable across checkouts.
func (p *Package) relFile(filename string) string {
	if p.root != "" {
		if rel, err := filepath.Rel(p.root, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filename)
}

// Loader loads and type-checks module packages using only the
// standard library: module-internal imports resolve recursively from
// the module tree; everything else resolves through go/importer's
// source importer, which reads GOROOT/src and therefore needs neither
// network access nor pre-compiled export data. The loader is the
// types.Importer it hands to go/types.
type Loader struct {
	Root   string // module root (directory containing go.mod)
	Module string // module path from go.mod

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package       // loaded module packages by import path
	typed   map[string]*types.Package // memoized type info (module + fixture)
	loading map[string]bool           // cycle guard
	extra   map[string]string         // fixture import path -> dir overrides
}

// NewLoader builds a loader for the module rooted at root. It reads
// the module path from go.mod.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(abs)
	if err != nil {
		return nil, err
	}
	// The source importer consults build.Default. Disable cgo so
	// packages like net type-check from their pure-Go fallbacks; a lint
	// pass must not depend on a C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Root:    abs,
		Module:  mod,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		typed:   map[string]*types.Package{},
		loading: map[string]bool{},
		extra:   map[string]string{},
	}, nil
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: read go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// Import implements types.Importer for the go/types checker.
func (l *Loader) Import(path string) (*types.Package, error) {
	if dir, ok := l.extra[path]; ok {
		pkg, err := l.loadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		pkg, err := l.loadModulePkg(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// importDir maps a module import path to its directory.
func (l *Loader) importDir(path string) string {
	if path == l.Module {
		return l.Root
	}
	return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.Module+"/")))
}

// loadModulePkg loads (memoized) one module package by import path.
func (l *Loader) loadModulePkg(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	pkg, err := l.loadDir(l.importDir(path), path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// loadDir parses and type-checks the non-test Go files of one
// directory under the given import path.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honour build constraints (//go:build lines and GOOS/GOARCH file
		// suffixes) the same way the compiler does, so platform-split
		// files — e.g. obs's getrusage reader with its unix/!unix pair —
		// don't type-check as duplicate declarations.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: %s: no Go files in %s", path, dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(error) {}, // collect via returned error only
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	l.typed[path] = tpkg
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
		root:  l.Root,
	}, nil
}

// LoadModule walks the module tree and loads every package in it,
// returned sorted by import path. testdata, hidden, and vendor-style
// directories are skipped, matching the go tool's package walk.
func (l *Loader) LoadModule() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return err
		}
		ip := l.Module
		if rel != "." {
			ip = l.Module + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	paths = dedupe(paths)
	var pkgs []*Package
	for _, ip := range paths {
		pkg, err := l.loadModulePkg(ip)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadFixture loads the single package in dir as if it lived at
// importPath, so analyzers see the package class the fixture
// re-creates. Fixture files may import real module packages; those
// resolve against the loader's module tree.
func (l *Loader) LoadFixture(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l.extra[importPath] = abs
	pkg, err := l.loadDir(abs, importPath)
	if err != nil {
		return nil, err
	}
	// Fixture findings should name files relative to the fixture dir,
	// not the module root, so goldens are checkout-independent.
	pkg.root = abs
	return pkg, nil
}

func dedupe(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
