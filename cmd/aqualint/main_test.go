package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintModule lays files out as a module named repro, so the suite's
// package scoping applies as it does in this repository, runs aqualint
// with args from the module root and returns the exit status, stdout and
// stderr.
func lintModule(t *testing.T, files map[string]string, args ...string) (int, string, string) {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module repro\n\ngo 1.22\n"
	for rel, content := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

const clockRead = `package p

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`

func TestCleanModuleExitsZero(t *testing.T) {
	code, stdout, stderr := lintModule(t, map[string]string{
		"internal/p/p.go": "package p\n\nfunc F() int { return 1 }\n",
		// A front-end may time itself.
		"cmd/tool/main.go": "package main\n\nimport \"time\"\n\nfunc main() { _ = time.Now() }\n",
	}, "./...")
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want a clean exit 0", code, stdout, stderr)
	}
}

func TestClockReadExitsOneWithJSON(t *testing.T) {
	code, stdout, stderr := lintModule(t, map[string]string{
		"internal/p/p.go": clockRead,
	}, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit %d, stderr %q; want 1", code, stderr)
	}
	var diags []jsonDiag
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("stdout is not a JSON diagnostic array: %v\n%s", err, stdout)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "noclock" || !strings.HasSuffix(d.File, filepath.Join("internal", "p", "p.go")) ||
		d.Line != 5 || d.Col != 29 || !strings.Contains(d.Message, "time.Now") {
		t.Fatalf("diagnostic %+v; want noclock at internal/p/p.go:5:29 naming time.Now", d)
	}
}

func TestStaleIgnoreReported(t *testing.T) {
	code, stdout, _ := lintModule(t, map[string]string{
		"internal/p/p.go": "package p\n\nfunc F() int { return 1 } //aqualint:ignore noclock\n",
	}, "./...")
	if code != 1 || !strings.Contains(stdout, "p.go:3:") || !strings.Contains(stdout, "unusedignore: aqualint:ignore noclock") {
		t.Fatalf("exit %d, stdout %q; want an unusedignore finding on p.go:3", code, stdout)
	}
}

// TestLoadFailureExitsTwo: a type error or an unparsable package exits
// 2, and every other package is still linted.
func TestLoadFailureExitsTwo(t *testing.T) {
	code, stdout, stderr := lintModule(t, map[string]string{
		"internal/bad/bad.go":  "package bad\n\nfunc F() int { return undefinedIdent }\n",
		"internal/broken/b.go": "package broken\n\nfunc {garbage\n",
		"internal/p/p.go":      clockRead,
	}, "./...")
	if code != 2 {
		t.Fatalf("exit %d; want 2", code)
	}
	if !strings.Contains(stderr, "repro/internal/bad: type error") || !strings.Contains(stderr, "broken") {
		t.Fatalf("stderr %q; want the type error and the parse failure", stderr)
	}
	if !strings.Contains(stdout, "noclock") {
		t.Fatalf("stdout %q; the healthy package must still be linted", stdout)
	}
}
