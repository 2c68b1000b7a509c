package repro

// Acceptance tests for the content-addressed result cache (see DESIGN.md
// "Result cache & incremental recomputation"):
//
//   - a lab rendered entirely from a warm on-disk cache emits the exact
//     golden byte stream, without simulating a single cell;
//   - resuming is rerunning: a calibrated lab rerun over a partly filled
//     cache directory renders the uninterrupted run's bytes, serves the
//     stored cells and calibrated IPCs, and double-counts nothing;
//   - under fault rules every cell takes the same cached path: a rerun
//     with the same rules serves the degraded cell, faults intact and
//     listed once in the degraded-cell summary, while a lab without rules
//     takes no hits from the directory.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cellcache"
	"repro/internal/dram"
	"repro/internal/sim"
)

// warmStore builds a store over dir, failing the test on error.
func warmStore(t *testing.T, dir string) *cellcache.Store {
	t.Helper()
	s, err := cellcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLabCacheWarmGolden is the cache's headline acceptance: a cold lab
// populates a cache directory while rendering the golden stream, and a
// fresh lab over a fresh Store on the same directory re-renders it
// byte-identically — with every cell served from disk, none simulated.
func TestLabCacheWarmGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "lab_golden.txt"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	dir := t.TempDir()

	cold := labAt(1)
	cold.AttachCache(warmStore(t, dir))
	got, err := renderGoldenLab(cold)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("cold cached lab diverged from golden:\n%s", firstDiff(string(want), got))
	}
	if cs := cold.CellStats(); cs.Simulated == 0 {
		t.Fatalf("cold lab stats %+v; expected simulations", cs)
	}

	warm := labAt(1)
	warm.AttachCache(warmStore(t, dir))
	got, err = renderGoldenLab(warm)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("warm cached lab diverged from golden:\n%s", firstDiff(string(want), got))
	}
	cs := warm.CellStats()
	if cs.CacheHits == 0 {
		t.Fatalf("warm lab stats %+v; took no cache hits", cs)
	}
	if cs.Simulated != 0 {
		t.Fatalf("warm lab stats %+v; simulated %d cells, want 0", cs, cs.Simulated)
	}
}

// TestLabCacheResumeInteraction resumes a calibrated lab, at a different
// parallelism than the run it resumes, by rerunning it over the same
// cache directory. The rerun must render the uninterrupted lab's bytes
// exactly, serve the partial run's cells and calibrated IPCs from the
// store — so it simulates fewer cells than a cold lab and runs no
// calibration pass — and keep its cell accounting exact.
func TestLabCacheResumeInteraction(t *testing.T) {
	calibrated := func(parallel int, seed uint64) *Lab {
		return NewLab(LabOptions{
			Window:    500 * dram.PS(dram.Microsecond),
			Workloads: []string{"xz", "wrf"},
			Parallel:  parallel,
			Seed:      seed,
		})
	}
	cold := calibrated(1, 0)
	want, err := renderGoldenLab(cold)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Partial run: one renderer's worth of cells, four at a time.
	partial := calibrated(4, 0)
	partial.AttachCache(warmStore(t, dir))
	if _, err := partial.Figure7(); err != nil {
		t.Fatal(err)
	}
	done := partial.CellStats().Simulated

	resumed := calibrated(1, 0)
	resumed.AttachCache(warmStore(t, dir))
	got, err := renderGoldenLab(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("resumed lab diverged from the uninterrupted lab:\n%s", firstDiff(want, got))
	}
	cs, coldCS := resumed.CellStats(), cold.CellStats()
	if done == 0 || cs.CacheHits != done {
		t.Fatalf("resumed lab stats %+v; want the partial run's %d cells served from the store", cs, done)
	}
	if cs.Simulated >= coldCS.Simulated {
		t.Fatalf("resumed lab simulated %d cells, a cold lab %d", cs.Simulated, coldCS.Simulated)
	}
	// The cold lab captured every core's stream at nominal IPC 1.0 for
	// calibration and again at the calibrated IPC; the resumed lab read
	// both workloads' IPCs from the store, so it captured only the latter.
	if cs.TraceCaptures*2 != coldCS.TraceCaptures {
		t.Fatalf("resumed lab captured %d streams, cold lab %d; want half (no calibration pass)",
			cs.TraceCaptures, coldCS.TraceCaptures)
	}
	if total := cs.CacheHits + cs.Deduped() + cs.Simulated + cs.Errors; total != cs.Requests {
		t.Fatalf("stats %+v don't add up: %d accounted of %d requests", cs, total, cs.Requests)
	}

	// A different seed misses every stored cell and IPC.
	store := warmStore(t, dir)
	other := calibrated(1, 0xD15EA5E)
	other.AttachCache(store)
	if _, err := other.Figure7(); err != nil {
		t.Fatal(err)
	}
	if hits := store.Stats().DiskHits; other.CellStats().CacheHits != 0 || hits != 0 {
		t.Fatalf("different-seed lab took %d cell hits and %d store hits, want 0", other.CellStats().CacheHits, hits)
	}
}

// TestLabCacheFaultedCellsServed pins the fault contract at lab level.
// A degraded cell is stored under a key that hashes the rules, so a rerun
// with the same rules over the directory serves it, its injected faults
// intact and listed exactly once, and simulates nothing. A panicking cell
// fails as a *sim.CellError with its stack on every run and is never
// stored. A lab without rules over the same directory takes no hits.
func TestLabCacheFaultedCellsServed(t *testing.T) {
	const spec = "wrf/aqua-sram/1000=refresh-collision@p:0.5;xz/rrs/1000=panic@once:0"
	dir := t.TempDir()
	render := func(which string) *Lab {
		l := faultedLab(t, spec)
		l.AttachCache(warmStore(t, dir))
		if _, err := l.Figure9(); err != nil {
			t.Fatalf("%s run: figure9 should survive a recovered hardware fault: %v", which, err)
		}
		_, err := l.Figure7()
		var ce *sim.CellError
		if !errors.As(err, &ce) || ce.Workload != "xz" || ce.Scheme != SchemeRRS || len(ce.Stack) == 0 {
			t.Fatalf("%s run: figure7 returned %v, want xz/rrs/1000's *sim.CellError with a stack", which, err)
		}
		count := 0
		for _, c := range l.FaultedCells() {
			if c.Workload == "wrf" && c.Scheme == SchemeAquaSRAM && c.TRH == 1000 {
				count++
				if c.Injected == 0 {
					t.Fatalf("%s run: degraded cell listed with no injections", which)
				}
			}
		}
		if count != 1 {
			t.Fatalf("%s run: degraded cell listed %d times, want exactly once", which, count)
		}
		return l
	}
	degraded := func(l *Lab) sim.WorkloadRun {
		run, err := l.Run("wrf", SchemeAquaSRAM, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}

	first := render("first")
	if cs := first.CellStats(); cs.Simulated == 0 {
		t.Fatalf("first run stats %+v; expected simulations", cs)
	}
	second := render("second")
	cs := second.CellStats()
	if cs.CacheHits == 0 || cs.Simulated != 0 {
		t.Fatalf("second run stats %+v; every completed cell, the degraded one included, should be served from the store", cs)
	}
	if cs.CacheMisses != 1 || cs.Errors != 1 {
		t.Fatalf("second run stats %+v; want only the panicking cell to miss and fail", cs)
	}
	if !reflect.DeepEqual(degraded(second), degraded(first)) {
		t.Fatal("the stored degraded cell diverged from the one simulated")
	}

	store := warmStore(t, dir)
	clean := faultedLab(t, "")
	clean.AttachCache(store)
	if _, err := clean.Figure9(); err != nil {
		t.Fatal(err)
	}
	if hits := store.Stats().DiskHits; clean.CellStats().CacheHits != 0 || hits != 0 {
		t.Fatalf("lab without rules took %d cell hits and %d store hits, want 0", clean.CellStats().CacheHits, hits)
	}
}
