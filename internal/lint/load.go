package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/dram"). Analyzer tests
	// relabel a corpus under testdata/src with its directory name ("a"),
	// which no path-scoping rule excludes.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-checking errors. Analysis proceeds
	// best-effort in their presence (mirroring x/tools behaviour for
	// corpora that deliberately contain odd code).
	TypeErrors []error
	// Err is why the package could not be loaded: an import cycle, build
	// constraints excluding every file, no non-test Go file, a pattern
	// outside the module, a file that does not parse. A package with Err
	// is not analyzed.
	Err error

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

// listed is the part of one `go list -json` record that Load reads.
type listed struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	DepOnly                 bool
	Error                   *struct{ Err string }
}

// Load lists the packages that patterns match in the module containing
// dir with one `go list -deps -export` run, so the go command decides
// what a pattern matches, which files build under the current GOOS,
// GOARCH and tags, and whether an import cycle exists. Each matched
// package is parsed and type-checked from source; every import, from the
// module or the standard library, is read from the gc export data that
// run leaves in the build cache (offline). Packages come back sorted by
// import path.
//
// The error is a go list run that failed as a whole (no go.mod above dir).
// A package that cannot be loaded carries its own Err, so the others can
// still be linted. A package the compiler rejects is still type-checked
// from source, its errors collected in TypeErrors.
func Load(dir string, patterns ...string) ([]*Package, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	byPath := make(map[string]*listed)
	var roots []*listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listed)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		byPath[lp.ImportPath] = lp
		if !lp.DepOnly {
			roots = append(roots, lp)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		lp := byPath[path]
		switch {
		case lp == nil:
			return nil, fmt.Errorf("go list did not list %s", path)
		case lp.Export == "":
			// Name the dependency only: its own type errors, or its load
			// error, report why.
			return nil, fmt.Errorf("%s did not compile", path)
		}
		return os.Open(lp.Export)
	})
	pkgs := make([]*Package, 0, len(roots))
	for _, lp := range roots {
		pkgs = append(pkgs, check(fset, imp, lp))
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// check parses and type-checks one listed package from source.
func check(fset *token.FileSet, imp types.Importer, lp *listed) *Package {
	pkg := &Package{Path: lp.ImportPath, Fset: fset}
	// A failed compile reaches Error as the compiler's output under a
	// "# importpath" header. The type-checker reports the same faults from
	// source; any other go list error is the package's load error.
	compileFailed := lp.Error != nil && strings.HasPrefix(lp.Error.Err, "# ")
	switch {
	case lp.Error != nil && !compileFailed:
		pkg.Err = errors.New(strings.TrimSpace(lp.Error.Err))
		return pkg
	case len(lp.GoFiles) == 0:
		pkg.Err = fmt.Errorf("no non-test Go files in %s", lp.Dir)
		return pkg
	}
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			pkg.Err = err
			return pkg
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(lp.ImportPath, fset, pkg.Files, pkg.Info)
	if compileFailed && len(pkg.TypeErrors) == 0 {
		// The compiler rejects what the type-checker accepts (a missing
		// function body, say): report the compiler's verdict.
		pkg.Err = errors.New(strings.TrimSpace(lp.Error.Err))
	}
	return pkg
}
