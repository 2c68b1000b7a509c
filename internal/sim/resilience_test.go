package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dram"
	"repro/internal/flight"
)

func resCfg() ExpConfig {
	return ExpConfig{
		Window:   150 * dram.PS(dram.Microsecond),
		Parallel: 2,
	}
}

// badCell is a cell whose system build panics: bloom.New rejects a group
// size that is not a power of two. It runs after its workload's baseline,
// like any cell, and fails the same way every time, so it stands for any
// cell that crashes mid-grid.
var badCell = GridCell{Scheme: SchemeAquaMemMapped, TRH: 1000, Variant: Variant{BloomGroupSize: 3}}

// checkBadCell requires err to be badCell's failure on workload name: a
// *CellError with the cell's label, the recovered panic as its cause and
// the panic's stack.
func checkBadCell(t *testing.T, err error, name string) {
	t.Helper()
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want the *CellError of %s's malformed-variant cell", err, name)
	}
	if want := name + "/aqua-memmapped/1000/bloom=3"; ce.Label() != want {
		t.Fatalf("failed cell %s, want %s", ce.Label(), want)
	}
	var pe *flight.PanicError
	if !errors.As(ce.Err, &pe) || !strings.Contains(pe.Error(), "bloom") {
		t.Fatalf("cause %v, want the recovered bloom.New panic", ce.Err)
	}
	if len(ce.Stack) == 0 {
		t.Fatal("panicking cell carried no stack")
	}
}

// TestNewRunnerInvalidConfig: a config no cell could run under must yield
// an inert Runner and an error, never a panic or process abort.
func TestNewRunnerInvalidConfig(t *testing.T) {
	cfg := ExpConfig{Window: -1}
	r, err := NewRunnerE(cfg)
	if err == nil {
		t.Fatalf("NewRunnerE(%+v): expected error", cfg)
	}
	if r.Err() == nil {
		t.Fatalf("Err() should report the construction error")
	}
	// The inert Runner converts every cell into a CellError.
	_, runErr := r.Run("xz", SchemeRRS, 1000)
	var ce *CellError
	if !errors.As(runErr, &ce) {
		t.Fatalf("inert Runner returned %v, want *CellError", runErr)
	}
	if ce.Workload != "xz" || !errors.Is(ce, err) {
		t.Fatalf("CellError %v does not carry the construction error %v", ce, err)
	}
}

// TestGridPartialResults: a grid with a panicking cell on every workload
// must run to completion and return the failure at the lowest grid
// index, while every other cell's numbers stay identical to a grid run
// without it and the failed cells stay out of the memo.
func TestGridPartialResults(t *testing.T) {
	names := []string{"xz", "lbm"}
	healthy := withBaseline([]GridCell{
		{Scheme: SchemeRRS, TRH: 1000},
		{Scheme: SchemeAquaMemMapped, TRH: 125},
	})
	clean := precomputeGrid(t, NewRunner(resCfg()), names, healthy)

	r := NewRunner(resCfg())
	err := r.Precompute(context.Background(), names, append([]GridCell{badCell}, healthy...))
	checkBadCell(t, err, "xz")
	if st := r.CellStats(); st.Errors != 2 || st.Simulated != int64(len(names)*len(healthy)) {
		t.Fatalf("stats %+v; want both bad cells failed and every healthy cell simulated", st)
	}
	// The cells beside the failures are byte-identical to the clean run
	// (same structs, so DeepEqual is exact), and they are all the memo
	// holds.
	if grid := gridOf(t, r, names, healthy); !reflect.DeepEqual(grid, clean) {
		t.Fatalf("healthy cells diverged beside a failed cell:\ngot:  %+v\nwant: %+v", grid, clean)
	}
	if n := len(r.Cells()); n != len(names)*len(healthy) {
		t.Fatalf("memo holds %d cells, want the %d healthy ones", n, len(names)*len(healthy))
	}
}

// pollCancelCtx cancels itself on its at-th Err poll: a fixed point
// inside a run, reached without any hook into the Runner. Cells poll from
// several workers, so the count is atomic.
type pollCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int64
	at     int64
}

func (c *pollCancelCtx) Err() error {
	if c.polls.Add(1) == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

// TestGridCancellation: cancelling mid-grid must stop the run promptly,
// return the context's error, and leak no goroutines (the -race build of
// this test is the acceptance check for clean shutdown). The context
// cancels itself at its 20th poll. The grid polls about 90 times in all,
// and each of xz's cells (dispatched first) completes within a handful,
// so the run is provably mid-flight: some cells done, one cut short, the
// rest not yet run.
func TestGridCancellation(t *testing.T) {
	r := NewRunner(resCfg())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pctx := &pollCancelCtx{Context: ctx, cancel: cancel, at: 20}
	names := []string{"xz", "wrf", "lbm", "mcf"}
	cells := withBaseline([]GridCell{
		{Scheme: SchemeRRS, TRH: 1000},
		{Scheme: SchemeAquaMemMapped, TRH: 1000},
	})
	err := r.Precompute(pctx, names, cells)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled grid returned %v, want context.Canceled", err)
	}
	all := int64(len(names) * len(cells))
	st := r.CellStats()
	if st.Simulated == 0 || st.Simulated == all || st.Errors == 0 {
		t.Fatalf("stats %+v; want some of the %d cells simulated and a cancelled one counted", st, all)
	}
	// The cells completed before the cancel are kept in the memo.
	if n := int64(len(r.Cells())); n != st.Simulated {
		t.Fatalf("%d cells memoized after the cancel, want the %d simulated", n, st.Simulated)
	}
}

// TestCacheResume: a grid interrupted after partial completion and then
// rerun against the same cache directory must produce a grid identical
// to an uninterrupted run, while serving the interrupted run's cells and
// calibrated IPCs from the store — so fewer cells simulate than in a cold
// run, and no workload repeats its calibration pass.
func TestCacheResume(t *testing.T) {
	names := []string{"xz", "wrf"}
	cells := withBaseline([]GridCell{
		{Scheme: SchemeRRS, TRH: 1000},
		{Scheme: SchemeAquaMemMapped, TRH: 1000},
	})
	first := withBaseline(cells[:1])
	cfg := resCfg()
	cfg.Calibrate = true
	cold := NewRunner(cfg)
	clean := precomputeGrid(t, cold, names, cells)

	dir := t.TempDir()

	// The interrupted run: every workload's calibration, baseline and
	// first cell finished; the second cells never started.
	partial := NewRunner(cfg)
	partial.AttachCellCache(storeAt(t, dir))
	if err := partial.Precompute(context.Background(), names, first); err != nil {
		t.Fatal(err)
	}

	// The rerun: a fresh Runner and Store over the same directory.
	resumed := NewRunner(cfg)
	resumed.AttachCellCache(storeAt(t, dir))
	grid := precomputeGrid(t, resumed, names, cells)
	if !reflect.DeepEqual(grid, clean) {
		t.Fatalf("resumed grid diverged from uninterrupted run:\ngot:  %+v\nwant: %+v", grid, clean)
	}
	st, coldSt := resumed.CellStats(), cold.CellStats()
	if done := partial.CellStats().Simulated; st.CacheHits != done {
		t.Fatalf("rerun stats %+v; want the interrupted run's %d cells served from the store", st, done)
	}
	if st.Simulated >= coldSt.Simulated {
		t.Fatalf("rerun simulated %d cells, a cold run %d", st.Simulated, coldSt.Simulated)
	}
	// A cold run captures each core's stream twice per workload: at
	// nominal IPC 1.0 for the calibration pass, then at the calibrated
	// IPC. The rerun reads the stored IPC and baseline, so it captures
	// only the calibrated streams its new cells replay.
	want := int64(paperCores * len(names))
	if st.TraceCaptures != want || coldSt.TraceCaptures != 2*want {
		t.Fatalf("trace captures: rerun %d, cold %d; want %d and %d",
			st.TraceCaptures, coldSt.TraceCaptures, want, 2*want)
	}

	// A different seed hashes every cell and IPC to a new key, so a
	// Runner under it takes no hits from the directory.
	other := cfg
	other.Seed = 0xBADC0FFEE
	store := storeAt(t, dir)
	r := NewRunner(other)
	r.AttachCellCache(store)
	if err := r.Precompute(context.Background(), names, first); err != nil {
		t.Fatal(err)
	}
	if hits := store.Stats().DiskHits; r.CellStats().CacheHits != 0 || hits != 0 {
		t.Fatalf("different-seed runner took %d cell hits and %d store hits, want 0",
			r.CellStats().CacheHits, hits)
	}
}
