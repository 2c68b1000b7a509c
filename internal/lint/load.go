package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"go/version"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/dram"), or a synthetic
	// label for directories outside the module (analyzer test corpora).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-checking errors. Analysis proceeds
	// best-effort in their presence (mirroring x/tools behaviour for
	// corpora that deliberately contain odd code).
	TypeErrors []error

	ign *ignoreIndex // built on first use; shared across analyzers
}

// ignoreIndex returns the package's `//aqualint:ignore` index, building
// it on first use. Sharing one index across the suite's analyzers is
// what lets the unused-suppression audit see every hit.
func (p *Package) ignoreIndex() *ignoreIndex {
	if p.ign == nil {
		p.ign = newIgnoreIndex(p.Fset, p.Files)
	}
	return p.ign
}

// Loader parses and type-checks packages of one module, resolving
// module-internal imports from source and standard-library imports from
// the gc compiler's export data, which the go command keeps in its build
// cache (both work offline).
type Loader struct {
	Fset       *token.FileSet
	ModuleDir  string
	ModulePath string

	std     types.Importer
	pkgs    map[string]*Package // memoized by directory (cleaned, absolute)
	seen    map[string]bool     // import-cycle guard by import path
	loading map[string]bool     // directories currently mid-load (re-entrancy = cycle)
}

// NewLoader builds a loader rooted at the module containing dir (the
// nearest ancestor with a go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleDir:  modDir,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "gc", nil),
		pkgs:       make(map[string]*Package),
		seen:       make(map[string]bool),
		loading:    make(map[string]bool),
	}, nil
}

// findModule walks upward from dir looking for go.mod and returns the
// module directory and module path.
func findModule(dir string) (string, string, error) {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
	}
}

// importPathFor maps a directory inside the module to its import path.
// Directories outside the module get a synthetic path (their base name),
// matching the layout of analyzer test corpora (testdata/src/<name>).
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.Base(dir)
	}
	if rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// dirForImport maps a module-internal import path to its directory.
func (l *Loader) dirForImport(path string) (string, bool) {
	if path == l.ModulePath {
		return l.ModuleDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// Import implements types.Importer so the type-checker can resolve the
// imports of packages under analysis.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.dirForImport(path); ok {
		if l.seen[path] {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		l.seen[path] = true
		defer delete(l.seen, path)
		pkg, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package in dir (test files excluded),
// memoizing the result. Type errors are collected, not fatal.
func (l *Loader) Load(dir string) (*Package, error) {
	return l.LoadAs(dir, "")
}

// LoadAs is Load with an explicit import path, used by analyzer tests to
// give corpora under testdata/src a synthetic path ("a") that no
// path-scoping rule excludes. An empty path derives it from the module.
func (l *Loader) LoadAs(dir, path string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[abs]; ok {
		return pkg, nil
	}
	// A directory re-entered while its own load is still running can only
	// mean its imports lead back to it.
	if l.loading[abs] {
		return nil, fmt.Errorf("lint: import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", abs)
	}

	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if !fileIncluded(f) {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s after build constraints", abs)
	}

	if path == "" {
		path = l.importPathFor(abs)
	}
	pkg := &Package{
		Path:  path,
		Fset:  l.Fset,
		Files: files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Hard errors (unresolvable imports) surface through the returned
	// error; everything else lands in TypeErrors and analysis proceeds.
	tpkg, err := conf.Check(pkg.Path, l.Fset, files, pkg.Info)
	if tpkg == nil {
		return nil, err
	}
	pkg.Types = tpkg
	l.pkgs[abs] = pkg
	return pkg, nil
}

// fileIncluded evaluates a file's `//go:build` constraint (if any)
// against the host: GOOS, GOARCH, unix, the gc toolchain, and go1.N
// language-version tags are satisfied as the go tool would satisfy them;
// anything else (ignore, custom tags) is false. Files with no constraint
// are always included.
func fileIncluded(f *ast.File) bool {
	for _, cg := range f.Comments {
		// Build constraints must precede the package clause.
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				// An unparsable constraint excludes the file, matching
				// the go tool's refusal to build it.
				return false
			}
			if !expr.Eval(buildTagSatisfied) {
				return false
			}
		}
	}
	return true
}

// unixGOOS mirrors the go tool's "unix" build-tag set (the subset that
// matters for this module's platforms).
var unixGOOS = map[string]bool{
	"aix": true, "darwin": true, "dragonfly": true, "freebsd": true,
	"linux": true, "netbsd": true, "openbsd": true, "solaris": true,
}

// buildTagSatisfied reports whether one build tag holds on this host.
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		return unixGOOS[runtime.GOOS]
	}
	if strings.HasPrefix(tag, "go1") && version.IsValid(tag) {
		return version.Compare(version.Lang(runtime.Version()), tag) >= 0
	}
	return false
}

// PackageDirs expands a pattern list into package directories. Patterns
// ending in "/..." are walked recursively; others name single package
// directories. testdata, vendor, and hidden directories are skipped,
// mirroring the go tool's pattern semantics.
func PackageDirs(root string, patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		abs, err := filepath.Abs(dir)
		if err != nil || seen[abs] {
			return
		}
		seen[abs] = true
		dirs = append(dirs, abs)
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "/...")
		if pat == "..." {
			base, recursive = ".", true
		}
		if base == "" {
			base = "."
		}
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, base)
		}
		if !recursive {
			if hasGoFiles(base) {
				add(base)
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}
