package schedvet

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	Path  string      // import path, e.g. "clustersched/internal/assign"
	Files []*ast.File // non-test sources in file-name order
	Types *types.Package
	Info  *types.Info
	Errs  []error // type errors (module packages only)
}

// Module loads and type-checks packages of a single Go module using
// only the standard library: build-tag-aware file selection via
// go/build, parsing via go/parser, and a source importer that resolves
// module-local import paths against the repository and everything else
// against GOROOT/src. Non-module packages are checked declarations-only
// (IgnoreFuncBodies), which both keeps loading fast and guarantees the
// nondet call graph never descends into the standard library.
type Module struct {
	Root string // absolute module root (directory containing go.mod)
	Path string // module path from go.mod
	Fset *token.FileSet

	ctxt    build.Context
	pkgs    map[string]*Package       // module packages, by import path
	imports map[string]*types.Package // decl-only packages, by import path
	loading map[string]bool           // cycle detection
}

// NewModule prepares a loader rooted at the directory containing
// go.mod. The root may be given as any directory inside the module;
// the loader searches upward for go.mod.
func NewModule(dir string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("schedvet: no go.mod found in or above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("schedvet: no module directive in %s/go.mod", root)
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false // pure-Go file selection, no preprocessing
	return &Module{
		Root:    root,
		Path:    modPath,
		Fset:    token.NewFileSet(),
		ctxt:    ctxt,
		pkgs:    make(map[string]*Package),
		imports: make(map[string]*types.Package),
		loading: make(map[string]bool),
	}, nil
}

// localDir maps a module-local import path to its directory, reporting
// whether the path belongs to this module.
func (m *Module) localDir(path string) (string, bool) {
	if path == m.Path {
		return m.Root, true
	}
	if rest, ok := strings.CutPrefix(path, m.Path+"/"); ok {
		return filepath.Join(m.Root, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Import implements types.Importer.
func (m *Module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (m *Module) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := m.localDir(path); ok {
		pkg, err := m.loadLocal(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.loadDecls(path)
}

// loadLocal parses and fully type-checks one module package, caching
// the result. Type errors are collected on the package, not returned:
// the go build gate owns compile failures; schedvet surfaces them but
// keeps whatever information the checker recovered.
func (m *Module) loadLocal(path, dir string) (*Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	if m.loading[path] {
		return nil, fmt.Errorf("schedvet: import cycle through %s", path)
	}
	m.loading[path] = true
	defer delete(m.loading, path)

	files, err := m.parseDir(dir, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Path: path,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	conf := types.Config{
		Importer:    m,
		FakeImportC: true,
		Error: func(err error) {
			if len(pkg.Errs) < 20 {
				pkg.Errs = append(pkg.Errs, err)
			}
		},
	}
	pkg.Types, _ = conf.Check(path, m.Fset, files, pkg.Info)
	pkg.Files = files
	m.pkgs[path] = pkg
	return pkg, nil
}

// loadDecls type-checks a non-module package (standard library or its
// vendored dependencies) declarations-only.
func (m *Module) loadDecls(path string) (*types.Package, error) {
	if pkg, ok := m.imports[path]; ok {
		return pkg, nil
	}
	if m.loading[path] {
		return nil, fmt.Errorf("schedvet: import cycle through %s", path)
	}
	m.loading[path] = true
	defer delete(m.loading, path)

	dir := ""
	for _, cand := range []string{
		filepath.Join(m.ctxt.GOROOT, "src", filepath.FromSlash(path)),
		filepath.Join(m.ctxt.GOROOT, "src", "vendor", filepath.FromSlash(path)),
	} {
		if fi, err := os.Stat(cand); err == nil && fi.IsDir() {
			dir = cand
			break
		}
	}
	if dir == "" {
		return nil, fmt.Errorf("schedvet: cannot find package %q in GOROOT", path)
	}
	files, err := m.parseDir(dir, 0)
	if err != nil {
		return nil, err
	}
	conf := types.Config{
		Importer:         m,
		FakeImportC:      true,
		IgnoreFuncBodies: true,
		Error:            func(error) {}, // tolerate; declarations suffice
	}
	pkg, _ := conf.Check(path, m.Fset, files, nil)
	if pkg == nil {
		return nil, fmt.Errorf("schedvet: cannot type-check package %q", path)
	}
	m.imports[path] = pkg
	return pkg, nil
}

// parseDir selects the buildable non-test files of dir under the
// loader's build context and parses them.
func (m *Module) parseDir(dir string, mode parser.Mode) ([]*ast.File, error) {
	bp, err := m.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadDir loads the module package in the given directory (absolute or
// relative to the module root).
func (m *Module) LoadDir(dir string) (*Package, error) {
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(m.Root, dir)
	}
	dir = filepath.Clean(dir)
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("schedvet: %s is outside the module", dir)
	}
	path := m.Path
	if rel != "." {
		path = m.Path + "/" + filepath.ToSlash(rel)
	}
	return m.loadLocal(path, dir)
}

// LoadAll loads every buildable package of the module, skipping
// testdata and hidden directories. Packages are returned in import-path
// order.
func (m *Module) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(m.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != m.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := m.LoadDir(dir)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue // only test files or excluded files
			}
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test .go file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// position maps a token.Pos to a module-root-relative file name and
// line for diagnostics.
func (m *Module) position(pos token.Pos) (string, int) {
	p := m.Fset.Position(pos)
	file := p.Filename
	if rel, err := filepath.Rel(m.Root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return file, p.Line
}
