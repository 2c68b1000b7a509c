package repro

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/dram"
)

// fastLab runs the figure machinery on a tiny window and two workloads so
// the full pipeline is exercised in CI time; the full-window runs live in
// bench_test.go and cmd/figures.
func fastLab() *Lab {
	return NewLab(LabOptions{
		Window:        500 * dram.PS(dram.Microsecond),
		Workloads:     []string{"xz", "wrf"},
		NoCalibration: true,
	})
}

func TestLabFigure3(t *testing.T) {
	out, err := fastLab().Figure3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"RRS-4K", "RRS-1K", "xz", "wrf", "Gmean-2"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLabFigure6And7ShareCache(t *testing.T) {
	l := fastLab()
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

func TestLabFigure9And10(t *testing.T) {
	l := fastLab()
	out9, err := l.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out9, "AQUA-SRAM") || !strings.Contains(out9, "AQUA-MemMap") {
		t.Fatalf("figure 9:\n%s", out9)
	}
	out10, err := l.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out10, "Bloom-reset") || !strings.Contains(out10, "Average") {
		t.Fatalf("figure 10:\n%s", out10)
	}
}

func TestLabFigure11(t *testing.T) {
	out, err := fastLab().Figure11()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2000", "1000", "500", "Slowdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestLabStaticFiguresAndTables(t *testing.T) {
	if out := Figure2(); !strings.Contains(out, "139K") {
		t.Error("figure 2 lost its history")
	}
	if out := Figure12(); !strings.Contains(out, "6.0") && !strings.Contains(out, "6") {
		t.Errorf("figure 12:\n%s", out)
	}
	out := Table3()
	for _, want := range []string{"23053", "180", "1.1%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 3 missing %q:\n%s", want, out)
		}
	}
	out = Table5()
	for _, want := range []string{"339601", "100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 5 missing %q:\n%s", want, out)
		}
	}
	out = Table7()
	if !strings.Contains(out, "Total") || !strings.Contains(out, "Tracker") {
		t.Errorf("table 7:\n%s", out)
	}
	out = StorageReport()
	for _, want := range []string{"quarantine", "bloom", "Power"} {
		if !strings.Contains(out, want) {
			t.Errorf("storage report missing %q:\n%s", want, out)
		}
	}
}

func TestLabTable2(t *testing.T) {
	out, err := fastLab().Table2()
	if err != nil {
		t.Fatal(err)
	}
	// Mixes are skipped; the two SPEC workloads appear with paper values
	// in parentheses.
	if !strings.Contains(out, "xz") || !strings.Contains(out, "(655)") {
		t.Fatalf("table 2:\n%s", out)
	}
}

func TestLabTable4And6(t *testing.T) {
	l := fastLab()
	out4, err := l.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out4, "Half-Double") {
		t.Fatalf("table 4:\n%s", out4)
	}
	out6, err := l.Table6()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Blockhammer", "CROW", "RRS", "AQUA", "1280x", "2.95x"} {
		if !strings.Contains(out6, want) {
			t.Errorf("table 6 missing %q:\n%s", want, out6)
		}
	}
}

func TestLabRunCaching(t *testing.T) {
	l := fastLab()
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

func TestLabSensitivityVF(t *testing.T) {
	out, err := fastLab().SensitivityVF()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bloom-filter", "fpt-cache", "8 KB", "32 KB"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLabPowerReport(t *testing.T) {
	out, err := fastLab().PowerReport()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DRAM", "SRAM", "13.6 mW"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLabTable1(t *testing.T) {
	out := Table1()
	for _, want := range []string{"16 GB", "128K", "14.2-14.2-14.2-45"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q:\n%s", want, out)
		}
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
