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

// loadOne loads the one package pattern names under root.
func loadOne(t *testing.T, root, pattern string) *Package {
	t.Helper()
	pkgs, err := Load(root, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load(%q) = %d packages, want 1", pattern, len(pkgs))
	}
	return pkgs[0]
}

func TestLoadCollectsTypeErrors(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": demoGoMod,
		"p/p.go": "package p\n\nfunc F() int { return undefinedIdent }\n",
	})
	pkg := loadOne(t, root, "./p")
	if pkg.Err != nil {
		t.Fatalf("soft type errors must not fail the load, got %v", pkg.Err)
	}
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("expected TypeErrors for undefined identifier, got none")
	}
	if pkg.Types == nil || pkg.Info == nil {
		t.Fatal("package with soft errors must still carry types and info")
	}
}

// TestLoadNamesBrokenDependency: a package importing one that does not
// compile gets one type error that names the dependency and leaves the
// compiler's output to the dependency's own errors.
func TestLoadNamesBrokenDependency(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":                "module probe\n\ngo 1.24\n",
		"internal/bad/bad.go":   "package bad\n\nfunc F() int { return undefinedIdent }\n",
		"internal/user/user.go": "package user\n\nimport \"probe/internal/bad\"\n\nfunc G() int { return bad.F() }\n",
	})
	user := loadOne(t, root, "./internal/user")
	if user.Err != nil || len(user.TypeErrors) != 1 {
		t.Fatalf("importer: load error %v and type errors %v, want one type error", user.Err, user.TypeErrors)
	}
	msg := user.TypeErrors[0].Error()
	if !strings.Contains(msg, "probe/internal/bad") || strings.Contains(msg, "undefinedIdent") || strings.Contains(msg, "\n") {
		t.Fatalf("importer's type error %q: want one line naming probe/internal/bad without its compiler output", msg)
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
	pkg := loadOne(t, root, "./p")
	if pkg.Err != nil {
		t.Fatal(pkg.Err)
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
	if err := loadOne(t, root, "./p").Err; err == nil || !strings.Contains(err.Error(), "build constraints") {
		t.Fatalf("want a build constraints error, got %v", err)
	}
}

func TestLoadTestOnlyDir(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":      demoGoMod,
		"p/p_test.go": "package p\n",
	})
	if err := loadOne(t, root, "./p").Err; err == nil || !strings.Contains(err.Error(), "no non-test Go files") {
		t.Fatalf("want 'no non-test Go files' error for test-only dir, got %v", err)
	}
}

func TestLoadImportCycle(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": demoGoMod,
		"a/a.go": "package a\n\nimport \"demo/b\"\n\nvar X = b.Y\n",
		"b/b.go": "package b\n\nimport \"demo/a\"\n\nvar Y = a.X\n",
	})
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	// The cycle must fail the load of a package in it, never hang or
	// succeed silently.
	for _, pkg := range pkgs {
		if pkg.Err != nil && strings.Contains(pkg.Err.Error(), "cycle") {
			return
		}
	}
	t.Fatal("import cycle went undetected")
}

func TestLoadNoGoMod(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(dir, "."); err == nil || !strings.Contains(err.Error(), "go.mod") {
		t.Fatalf("want go.mod error, got %v", err)
	}
}

// TestLoadSkipsTestdata: the packages ./... matches leave out testdata,
// vendor, and _- or .-prefixed directories, and ones with no Go file.
func TestLoadSkipsTestdata(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":            demoGoMod,
		"p/p.go":            "package p\n",
		"p/testdata/x.go":   "package x\n",
		"p/_hidden/h.go":    "package h\n",
		"p/.dot/d.go":       "package d\n",
		"vendor/v/v.go":     "package v\n",
		"q/sub/deep/d.go":   "package deep\n",
		"emptydir/.gitkeep": "",
	})
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, pkg := range pkgs {
		paths = append(paths, pkg.Path)
	}
	if want := "demo/p demo/q/sub/deep"; strings.Join(paths, " ") != want {
		t.Fatalf("./... matched %v, want %s", paths, want)
	}
}
