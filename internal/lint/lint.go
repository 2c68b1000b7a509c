// Package lint is a self-contained static-analysis framework in the
// spirit of golang.org/x/tools/go/analysis, built only on the standard
// library's go/ast and go/types so the repository carries no external
// dependencies. It powers cmd/aqualint, the multichecker that enforces
// the simulator's determinism and lock-discipline rules (see DESIGN.md,
// "Determinism & invariants"). Each analyzer inspects one type-checked
// package at a time through a Pass.
//
// Diagnostics on a line that carries an `//aqualint:ignore <name>`
// comment are suppressed, giving call sites a reviewed escape hatch.
// Suppressions are tracked: UnusedIgnores reports directives that
// suppressed nothing, so stale escape hatches cannot accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named per-package check.
type Analyzer struct {
	// Name is the analyzer's identifier, used in reports and in
	// `//aqualint:ignore <name>` suppression comments.
	Name string
	// Doc is a one-paragraph description of the rule.
	Doc string
	// Applies filters packages by import path; nil means every package.
	// Paths outside the module (e.g. the "a"-style paths of test corpora)
	// should be accepted so analyzer tests are unaffected by scoping.
	Applies func(pkgPath string) bool
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Info     *types.Info

	diags   *[]Diagnostic
	ignores *ignoreIndex
}

// Reportf records a diagnostic at pos unless the line is suppressed.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores.suppress(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil if unknown (e.g. the
// package had type errors).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// PkgNameOf resolves an identifier to the imported package it names, or
// nil if it is not a package qualifier. It is the building block for
// "is this selector fmt.Println / time.Now?" questions.
func (p *Pass) PkgNameOf(id *ast.Ident) *types.PkgName {
	if obj, ok := p.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn
		}
	}
	return nil
}

var ignoreRe = regexp.MustCompile(`^//\s*aqualint:ignore(?:\s+([A-Za-z0-9_,-]+))?`)

// ignoreEntry is one analyzer name on one `//aqualint:ignore` comment
// ("" = all analyzers). used is set when the entry suppresses a
// diagnostic, which is what the stale-suppression audit keys on.
type ignoreEntry struct {
	pos  token.Position
	name string
	used bool
}

// ignoreIndex holds a package's ignore directives by file and line. A
// package builds it once (Package.ignoreIndex), so the suppression hits
// of every analyzer in the suite land in one index for the audit.
type ignoreIndex struct {
	byLine map[string]map[int][]*ignoreEntry
	all    []*ignoreEntry
}

// suppress reports whether a diagnostic from the named analyzer at pos is
// ignored, marking the matching entry used. Nil-safe (nothing suppressed).
func (ix *ignoreIndex) suppress(analyzer string, pos token.Position) bool {
	if ix == nil {
		return false
	}
	hit := false
	for _, e := range ix.byLine[pos.Filename][pos.Line] {
		if e.name == "" || e.name == analyzer {
			e.used = true
			hit = true
		}
	}
	return hit
}

// newIgnoreIndex indexes `//aqualint:ignore` comments by file and line.
func newIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	ix := &ignoreIndex{byLine: make(map[string]map[int][]*ignoreEntry)}
	add := func(pos token.Position, name string) {
		lines := ix.byLine[pos.Filename]
		if lines == nil {
			lines = make(map[int][]*ignoreEntry)
			ix.byLine[pos.Filename] = lines
		}
		e := &ignoreEntry{pos: pos, name: name}
		lines[pos.Line] = append(lines[pos.Line], e)
		ix.all = append(ix.all, e)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if m[1] == "" {
					add(pos, "")
					continue
				}
				for _, name := range strings.Split(m[1], ",") {
					add(pos, strings.TrimSpace(name))
				}
			}
		}
	}
	return ix
}

// RunAnalyzers applies every applicable analyzer to a loaded package and
// returns the diagnostics sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, an := range analyzers {
		if an.Applies != nil && !an.Applies(pkg.Path) {
			continue
		}
		pass := &Pass{
			Analyzer: an,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Info:     pkg.Info,
			diags:    &diags,
			ignores:  pkg.ignoreIndex(),
		}
		an.Run(pass)
	}
	sortDiagnostics(diags)
	return diags
}

// UnusedIgnores audits the given packages for `//aqualint:ignore`
// directives that suppressed nothing. Call it after the whole suite has
// run over them: a directive naming an analyzer outside the suite, and a
// blanket directive on a clean line, are both stale.
func UnusedIgnores(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, e := range pkg.ignoreIndex().all {
			if e.used {
				continue
			}
			msg := "aqualint:ignore suppresses nothing; remove the stale directive"
			if e.name != "" {
				msg = fmt.Sprintf("aqualint:ignore %s suppresses no %s diagnostic; remove the stale directive", e.name, e.name)
			}
			diags = append(diags, Diagnostic{Analyzer: "unusedignore", Pos: e.pos, Message: msg})
		}
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders diagnostics by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
