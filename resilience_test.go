package repro

// Acceptance tests for the resilient experiment engine (see DESIGN.md
// "Failure model: cell isolation and cancellation"):
//
//   - a cell that panics inside a lab's grid fails as a structured
//     *sim.CellError, and the golden sections still render their bytes;
//   - a run interrupted after partial completion and rerun over its
//     cache directory reproduces the uninterrupted golden output exactly;
//   - a cancelled lab surfaces the context's error.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
)

// TestLabFailedCellIsolated: a panicking cell in the same Precompute as
// the whole paper grid fails as a *sim.CellError that names it and
// carries its stack, and the golden sections on that lab stay
// byte-identical to the golden file. The cell's system build panics because bloom.New
// rejects a group size that is not a power of two; it stands for any
// cell that crashes mid-grid.
func TestLabFailedCellIsolated(t *testing.T) {
	l := labAt(2)
	bad := sim.GridCell{Scheme: SchemeAquaMemMapped, TRH: 1000, Variant: sim.Variant{BloomGroupSize: 3}}
	err := l.Precompute(append(PaperGrid(), bad)...)
	var ce *sim.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("Precompute returned %v, want *sim.CellError", err)
	}
	if want := "xz/aqua-memmapped/1000/bloom=3"; ce.Label() != want || len(ce.Stack) == 0 {
		t.Fatalf("failed cell %s with a %d-byte stack, want %s with its panic stack", ce.Label(), len(ce.Stack), want)
	}
	got, err := renderGoldenLab(l)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "lab_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("renderers diverged from golden beside a failed cell:\n%s", firstDiff(string(want), got))
	}
}

// TestLabResumeGolden: a lab that completed only part of the evaluation
// before stopping, then a fresh lab rerun over the same cache directory,
// must reproduce the uninterrupted golden byte stream exactly — while
// serving every cell the first lab finished from the store and
// simulating only the rest.
func TestLabResumeGolden(t *testing.T) {
	dir := t.TempDir()

	// Partial run: two renderers' worth of cells, then stop (standing in
	// for a run killed mid-grid; entries land atomically one cell at a
	// time, so any kill point leaves a valid set).
	l1 := labAt(1)
	l1.AttachCache(warmStore(t, dir))
	if _, err := l1.Figure7(); err != nil {
		t.Fatal(err)
	}
	if _, err := l1.Figure10(); err != nil {
		t.Fatal(err)
	}
	done := l1.CellStats().Simulated

	// Rerun: full render from a fresh lab over the same directory.
	l2 := labAt(1)
	l2.AttachCache(warmStore(t, dir))
	got, err := renderGoldenLab(l2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "lab_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("resumed lab output diverged from golden:\n%s", firstDiff(string(want), got))
	}
	cs := l2.CellStats()
	if done == 0 || cs.CacheHits != done {
		t.Fatalf("rerun stats %+v; want the first lab's %d cells served from the store", cs, done)
	}
	// A cold lab simulates every unique cell of the render: the ones the
	// rerun served plus the ones it simulated.
	cold := labAt(1)
	if _, err := renderGoldenLab(cold); err != nil {
		t.Fatal(err)
	}
	if coldSim := cold.CellStats().Simulated; cs.Simulated+done != coldSim {
		t.Fatalf("rerun simulated %d cells after %d served; a cold lab simulated %d", cs.Simulated, done, coldSim)
	}

	// A lab with different options hashes to different keys: nothing the
	// first lab stored is served to it.
	store := warmStore(t, dir)
	l3 := NewLab(LabOptions{
		Window:        500 * dram.PS(dram.Microsecond),
		Workloads:     []string{"xz", "wrf"},
		NoCalibration: true,
		Parallel:      1,
		Seed:          0xD15EA5E,
	})
	l3.AttachCache(store)
	if _, err := l3.Figure7(); err != nil {
		t.Fatal(err)
	}
	if hits := store.Stats().DiskHits; l3.CellStats().CacheHits != 0 || hits != 0 {
		t.Fatalf("different-seed lab took %d cell hits and %d store hits, want 0", l3.CellStats().CacheHits, hits)
	}
}

// TestLabCancelledContext: a lab whose context is already done must fail
// fast with the context's error instead of simulating.
func TestLabCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := NewLab(LabOptions{
		Window:        500 * dram.PS(dram.Microsecond),
		Workloads:     []string{"xz", "wrf"},
		NoCalibration: true,
		Parallel:      2,
		Context:       ctx,
	})
	_, err := l.Figure7()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lab returned %v, want context.Canceled", err)
	}
}
