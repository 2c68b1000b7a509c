// Package linttest runs a lint.Analyzer over a testdata corpus and
// checks its diagnostics against `// want "regexp"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest without the dependency.
//
// Corpus layout matches analysistest: testdata/src/<pkg>/*.go, with each
// expected diagnostic marked on its line:
//
//	rand.Int() // want `direct import of math/rand`
//
// A line with no want comment must produce no diagnostic.
package linttest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

var wantRe = regexp.MustCompile("want\\s+(?:\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

// expectation is one `// want` marker.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads each named package from testdataDir/src and checks the
// analyzer's diagnostics against the corpus's want comments.
func Run(t *testing.T, an *lint.Analyzer, testdataDir string, pkgs ...string) {
	t.Helper()
	for _, name := range pkgs {
		dir := filepath.Join(testdataDir, "src", name)
		loaded, err := lint.Load(dir, ".")
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		pkg := loaded[0]
		if pkg.Err != nil {
			t.Fatalf("linttest: loading %s: %v", dir, pkg.Err)
		}
		// Scope the corpus by its name, as a path outside the module.
		pkg.Path = name
		expects, err := collectWants(pkg)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		for _, d := range lint.RunAnalyzers(pkg, []*lint.Analyzer{an}) {
			matched := false
			for _, e := range expects {
				if e.file == d.Pos.Filename && e.line == d.Pos.Line && e.re.MatchString(d.Message) {
					e.hit = true
					matched = true
				}
			}
			if !matched {
				t.Errorf("%s: unexpected diagnostic: %s", name, d)
			}
		}
		for _, e := range expects {
			if !e.hit {
				t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none",
					name, filepath.Base(e.file), e.line, e.re)
			}
		}
	}
}

// collectWants extracts the want markers from a package's comments.
func collectWants(pkg *lint.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				e, err := parseWant(pkg.Fset, c.Pos(), c.Text)
				if err != nil {
					return nil, err
				}
				if e != nil {
					out = append(out, e)
				}
			}
		}
	}
	return out, nil
}

func parseWant(fset *token.FileSet, pos token.Pos, text string) (*expectation, error) {
	if !strings.Contains(text, "want") {
		return nil, nil
	}
	m := wantRe.FindStringSubmatch(text)
	if m == nil {
		return nil, nil
	}
	pattern := m[2]
	if m[1] != "" {
		unq, err := strconv.Unquote(`"` + m[1] + `"`)
		if err != nil {
			return nil, fmt.Errorf("bad want pattern %q: %v", m[1], err)
		}
		pattern = unq
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("bad want regexp %q: %v", pattern, err)
	}
	position := fset.Position(pos)
	return &expectation{file: position.Filename, line: position.Line, re: re}, nil
}
