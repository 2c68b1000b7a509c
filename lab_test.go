package repro

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dram"
)

// labAt builds the reduced lab every Lab test renders on: a 500 µs
// window over xz and wrf, no calibration, at the given parallelism (0 =
// GOMAXPROCS). testdata/lab_golden.txt pins its output.
func labAt(parallel int) *Lab {
	return NewLab(LabOptions{
		Window:        500 * dram.PS(dram.Microsecond),
		Workloads:     []string{"xz", "wrf"},
		NoCalibration: true,
		Parallel:      parallel,
	})
}

func TestLabFigure6And7ShareCache(t *testing.T) {
	l := labAt(0)
	if _, err := l.Figure7(); err != nil {
		t.Fatal(err)
	}
	cached := len(l.SortedCacheKeys())
	if _, err := l.Figure6(); err != nil {
		t.Fatal(err)
	}
	// Figure 6 adds only the memory-mapped cells; the RRS cells are
	// reused from Figure 7.
	added := len(l.SortedCacheKeys()) - cached
	if added > 2 {
		t.Fatalf("cache not shared: %d new cells", added)
	}
}

// TestLabTable1 and TestLabStaticFiguresAndTables pin the six
// closed-form outputs byte for byte.
func TestLabTable1(t *testing.T) {
	requirePrinted(t, "table1")
}

func TestLabStaticFiguresAndTables(t *testing.T) {
	requirePrinted(t, "figure2", "table3", "table5", "figure12", "table7")
}

// requirePrinted requires each named closed-form registry entry's text
// to appear in testdata/figures_spec_1ms.txt as figures prints it, at
// the start or after a blank line, and followed by a newline.
func requirePrinted(t *testing.T, names ...string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "figures_spec_1ms.txt"))
	if err != nil {
		t.Fatal(err)
	}
	printed := "\n\n" + string(data)
	for _, name := range names {
		r, ok := RendererByName(name)
		if !ok {
			t.Fatalf("no renderer %q", name)
		}
		out, err := r.Fn(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(printed, "\n\n"+out+"\n") {
			t.Errorf("%s is not in figures_spec_1ms.txt as printed:\n%s", name, out)
		}
	}
}

func TestLabRunCaching(t *testing.T) {
	l := labAt(0)
	a, err := l.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache returned a different result")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	// The README quick-start path.
	rank := NewBaselineRank()
	aqua := NewAqua(rank, AquaConfig{TRH: 1000})
	ctrl := NewController(rank, aqua)
	done := ctrl.Submit(Row(12345), false, 0)
	if done <= 0 {
		t.Fatal("no completion")
	}
	mon := NewSecurityMonitor(NewBaselineRank(), 1000)
	if mon.Violated() {
		t.Fatal("fresh monitor violated")
	}
	if len(AllWorkloads()) != 34 || len(SPECWorkloads()) != 18 {
		t.Fatal("workload lists")
	}
}

func TestLabCoRunReport(t *testing.T) {
	l := NewLab(LabOptions{
		Window:        500 * dram.PS(dram.Microsecond),
		Workloads:     []string{"xz"},
		NoCalibration: true,
	})
	out, err := l.CoRunReport("xz")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DoS attacker", "analytical bound", "violated: false"} {
		if !strings.Contains(out, want) {
			t.Errorf("co-run report missing %q:\n%s", want, out)
		}
	}
	if _, err := l.CoRunReport("ghost"); err == nil {
		t.Fatal("ghost workload accepted")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stopped := NewLab(LabOptions{
		Window:        500 * dram.PS(dram.Microsecond),
		Workloads:     []string{"xz"},
		NoCalibration: true,
		Context:       ctx,
	})
	if out, err := stopped.CoRunReport("xz"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lab returned %v and %d bytes, want context.Canceled", err, len(out))
	}
}
