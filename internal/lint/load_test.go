package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// writeTree lays out a file tree under a fresh temp dir and returns its
// root. Keys are slash-separated relative paths.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const demoGoMod = "module demo\n\ngo 1.24\n"

func TestLoadCollectsTypeErrors(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": demoGoMod,
		"p/p.go": "package p\n\nfunc F() int { return undefinedIdent }\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load(filepath.Join(root, "p"))
	if err != nil {
		t.Fatalf("Load: soft type errors must not be fatal, got %v", err)
	}
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("expected TypeErrors for undefined identifier, got none")
	}
	if pkg.Types == nil || pkg.Info == nil {
		t.Fatal("package with soft errors must still carry types and info")
	}
}

func TestLoadSkipsBuildConstrainedFiles(t *testing.T) {
	otherOS := "windows"
	if runtime.GOOS == "windows" {
		otherOS = "linux"
	}
	root := writeTree(t, map[string]string{
		"go.mod":      demoGoMod,
		"p/p.go":      "package p\n\nfunc F() int { return 1 }\n",
		"p/gen.go":    "//go:build ignore\n\npackage main\n\nfunc main() {}\n",
		"p/other.go":  "//go:build " + otherOS + "\n\npackage p\n\nfunc G() int { return brokenOnPurpose }\n",
		"p/future.go": "//go:build go1.999\n\npackage p\n\nfunc H() {}\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load(filepath.Join(root, "p"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("want 1 file after build constraints, got %d", len(pkg.Files))
	}
	// The excluded files never reach the type-checker: other.go's
	// deliberate error must not show up.
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("unexpected type errors: %v", pkg.TypeErrors)
	}
}

func TestLoadAllFilesConstrainedOut(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": demoGoMod,
		"p/p.go": "//go:build ignore\n\npackage main\n\nfunc main() {}\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.Load(filepath.Join(root, "p"))
	if err == nil || !strings.Contains(err.Error(), "after build constraints") {
		t.Fatalf("want 'after build constraints' error, got %v", err)
	}
}

func TestLoadTestOnlyDir(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":      demoGoMod,
		"p/p_test.go": "package p\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.Load(filepath.Join(root, "p"))
	if err == nil || !strings.Contains(err.Error(), "no Go files") {
		t.Fatalf("want 'no Go files' error for test-only dir, got %v", err)
	}
}

func TestLoadImportCycle(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": demoGoMod,
		"a/a.go": "package a\n\nimport \"demo/b\"\n\nvar X = b.Y\n",
		"b/b.go": "package b\n\nimport \"demo/a\"\n\nvar Y = a.X\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	// The cycle must surface somewhere — as a hard load error or as a
	// collected type error on either package in it (b is memoized by
	// a's load) — never hang or succeed silently.
	for _, dir := range []string{"a", "b"} {
		pkg, err := l.Load(filepath.Join(root, dir))
		if err != nil {
			if !strings.Contains(err.Error(), "cycle") {
				t.Fatalf("want cycle in load error, got %v", err)
			}
			return
		}
		for _, terr := range pkg.TypeErrors {
			if strings.Contains(terr.Error(), "cycle") {
				return
			}
		}
	}
	t.Fatal("import cycle went undetected")
}

func TestLoadNoGoMod(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewLoader(dir); err == nil || !strings.Contains(err.Error(), "go.mod") {
		t.Fatalf("want go.mod error, got %v", err)
	}
}

func TestBuildTagSatisfied(t *testing.T) {
	cases := []struct {
		tag  string
		want bool
	}{
		{runtime.GOOS, true},
		{runtime.GOARCH, true},
		{"gc", true},
		{"go1.1", true},
		{"go1.999", false},
		{"ignore", false},
		{"sometag", false},
	}
	for _, c := range cases {
		if got := buildTagSatisfied(c.tag); got != c.want {
			t.Errorf("buildTagSatisfied(%q) = %v, want %v", c.tag, got, c.want)
		}
	}
	if unix := buildTagSatisfied("unix"); unix != unixGOOS[runtime.GOOS] {
		t.Errorf("buildTagSatisfied(unix) = %v on %s", unix, runtime.GOOS)
	}
}

func TestPackageDirsSkipsTestdata(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":            demoGoMod,
		"p/p.go":            "package p\n",
		"p/testdata/x.go":   "package x\n",
		"p/_hidden/h.go":    "package h\n",
		"vendor/v/v.go":     "package v\n",
		"q/sub/deep/d.go":   "package deep\n",
		"emptydir/.gitkeep": "",
	})
	dirs, err := PackageDirs(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var rels []string
	for _, d := range dirs {
		rel, _ := filepath.Rel(root, d)
		rels = append(rels, filepath.ToSlash(rel))
	}
	want := []string{"p", "q/sub/deep"}
	if len(rels) != len(want) {
		t.Fatalf("PackageDirs = %v, want %v", rels, want)
	}
	for i := range want {
		if rels[i] != want[i] {
			t.Fatalf("PackageDirs = %v, want %v", rels, want)
		}
	}
}
