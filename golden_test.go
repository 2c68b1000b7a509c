package repro

// Golden-output check: the byte-for-byte contract every optimization PR
// must preserve. TestLabGolden renders eleven simulation-backed outputs
// on the reduced grid of parallel_test.go and compares against a
// committed golden file, so a hot-path change that alters *any* simulated
// number — a reordered RNG draw, a different tie-break, a timing skew —
// fails the build instead of silently shifting figures.
//
// The golden file was generated before the allocation-free request
// pipeline landed (PR 3), so it also certifies old-vs-new equivalence of
// that optimization. Regenerate (only when an intentional behaviour
// change is reviewed and understood) with:
//
//	go test -run TestLabGolden -update-golden .

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// renderGolden produces the concatenated renderer output for the reduced
// serial lab.
func renderGolden() (string, error) {
	return renderGoldenLab(labAt(1))
}

// goldenSections names the registry entries testdata/lab_golden.txt
// holds, in its order: every simulation-backed output except Section
// VI-C's co-run.
var goldenSections = []string{"table2", "figure3", "figure6", "figure7", "figure9",
	"figure10", "figure11", "table4", "table6", "section5f", "section5h"}

// renderGoldenLab renders the golden sections in their framing on the
// given lab: the byte stream the cache and resume acceptance tests must
// reproduce too.
func renderGoldenLab(l *Lab) (string, error) {
	var b strings.Builder
	for _, name := range goldenSections {
		r, ok := RendererByName(name)
		if !ok {
			return "", fmt.Errorf("no renderer %q", name)
		}
		sec, err := RenderSection(l, r)
		if err != nil {
			return "", err
		}
		b.WriteString(sec)
	}
	return b.String(), nil
}

func TestLabGolden(t *testing.T) {
	got, err := renderGolden()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "lab_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestLabGolden -update-golden .`): %v", err)
	}
	if got != string(want) {
		t.Errorf("renderer output diverged from %s.\n"+
			"If this change is intentional, regenerate with -update-golden and explain the delta in the PR.\n%s",
			path, firstDiff(string(want), got))
	}
}

// firstDiff renders the first differing line with context, keeping the
// failure message readable for multi-kilobyte tables.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first diff at line %d:\n  golden: %q\n  got:    %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: golden %d vs got %d", len(wl), len(gl))
}
