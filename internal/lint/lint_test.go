package lint

import (
	"go/token"
	"strings"
	"testing"
)

func TestUnusedIgnoreAudit(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": demoGoMod,
		"p/p.go": `package p

func F() int { return 1 } //aqualint:ignore testrule
func G() int { return 2 } //aqualint:ignore testrule
func H() int { return 3 } //aqualint:ignore otherrule
func I() int { return 4 } //aqualint:ignore
`,
	})
	pkg := loadOne(t, root, "./p")
	if pkg.Err != nil {
		t.Fatal(pkg.Err)
	}

	// testrule fires only on F's line: that ignore is used, G's is stale.
	an := &Analyzer{
		Name: "testrule",
		Run: func(pass *Pass) {
			for _, f := range pass.Files {
				for _, d := range f.Decls {
					if pass.Fset.Position(d.Pos()).Line == 3 {
						pass.Reportf(d.Pos(), "finding on F")
					}
				}
			}
		},
	}
	diags := RunAnalyzers(pkg, []*Analyzer{an})
	if len(diags) != 0 {
		t.Fatalf("ignored diagnostic leaked: %v", diags)
	}

	// G's stale testrule, H's otherrule (no analyzer of that name ran)
	// and I's blanket ignore on a clean line.
	audit := UnusedIgnores([]*Package{pkg})
	var lines []int
	for _, d := range audit {
		lines = append(lines, d.Pos.Line)
	}
	if len(audit) != 3 || lines[0] != 4 || lines[1] != 5 || lines[2] != 6 {
		t.Fatalf("audit = %v, want stale testrule + otherrule + blanket on lines 4-6", audit)
	}
	if !strings.Contains(audit[0].Message, "testrule") {
		t.Fatalf("wrong stale entry: %v", audit[0])
	}
}

func TestSortDiagnosticsOrder(t *testing.T) {
	mk := func(file string, line, col int, an string) Diagnostic {
		return Diagnostic{Analyzer: an, Pos: token.Position{Filename: file, Line: line, Column: col}}
	}
	diags := []Diagnostic{
		mk("b.go", 1, 1, "z"),
		mk("a.go", 2, 1, "z"),
		mk("a.go", 2, 1, "a"),
		mk("a.go", 1, 9, "z"),
	}
	sortDiagnostics(diags)
	want := []Diagnostic{
		mk("a.go", 1, 9, "z"),
		mk("a.go", 2, 1, "a"),
		mk("a.go", 2, 1, "z"),
		mk("b.go", 1, 1, "z"),
	}
	for i := range want {
		if diags[i] != want[i] {
			t.Fatalf("order[%d] = %v, want %v", i, diags[i], want[i])
		}
	}
}
