package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dram"
	"repro/internal/fault"
)

func mustRules(t *testing.T, spec string) *fault.Rules {
	t.Helper()
	rules, err := fault.ParseRules(spec)
	if err != nil {
		t.Fatalf("ParseRules(%q): %v", spec, err)
	}
	return rules
}

func resCfg(faults *fault.Rules) ExpConfig {
	return ExpConfig{
		Window:   150 * dram.PS(dram.Microsecond),
		Parallel: 2,
		Faults:   faults,
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

// TestGridPartialResults: a grid with one injected panicking cell and one
// injected RQA-overflow cell must run to completion, report the panic as
// a structured failure, and leave every healthy cell's numbers identical
// to a fault-free run.
func TestGridPartialResults(t *testing.T) {
	names := []string{"xz", "lbm"}
	cells := withBaseline([]GridCell{
		{Scheme: SchemeRRS, TRH: 1000},
		// TRH 125 is low enough that lbm's hot rows cross it within the
		// reduced window, so the scheme actually mitigates — a
		// prerequisite for the RQA-overflow fault to have a site to fire.
		{Scheme: SchemeAquaMemMapped, TRH: 125},
	})
	clean := precomputeGrid(t, NewRunner(resCfg(nil)), names, cells)

	rules := mustRules(t, "xz/rrs/1000=panic@once:0;lbm/aqua-memmapped/125=rqa-overflow@p:1")
	r := NewRunner(resCfg(rules))
	err := r.Precompute(context.Background(), names, cells)
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("Precompute returned %v, want *CellError", err)
	}
	if st := r.CellStats(); st.Errors != 1 {
		t.Fatalf("%d cells failed, want 1 (stats %+v)", st.Errors, st)
	}
	if ce.Workload != "xz" || ce.Scheme != SchemeRRS || ce.TRH != 1000 {
		t.Fatalf("failed cell identity = %s/%s/%d", ce.Workload, ce.Scheme, ce.TRH)
	}
	if len(ce.Stack) == 0 {
		t.Fatalf("panicking cell carried no stack")
	}
	if !strings.Contains(ce.Error(), "injected panic") {
		t.Fatalf("CellError %q does not name the injected panic", ce.Error())
	}

	// The RQA-overflow cell must have survived, degraded to the
	// victim-refresh fallback, and counted its faults.
	over := cellOf(t, r, "lbm", cells[1])
	if over.Result.FaultStats.Injected == 0 {
		t.Fatalf("overflow cell reports no injected faults")
	}
	if over.Result.MitStats.OverflowFallbacks == 0 {
		t.Fatalf("overflow cell reports no fallback mitigations")
	}

	// Every cell the faults did not touch is byte-identical to the clean
	// run (same structs, so DeepEqual is exact).
	if !reflect.DeepEqual(cellOf(t, r, "xz", cells[1]), clean[0][1]) {
		t.Fatalf("healthy cell xz/aqua-memmapped diverged under unrelated faults")
	}
	if !reflect.DeepEqual(cellOf(t, r, "lbm", cells[0]), clean[1][0]) {
		t.Fatalf("healthy cell lbm/rrs diverged under unrelated faults")
	}
	if !reflect.DeepEqual(cellOf(t, r, "xz", baselineCell), clean[0][2]) ||
		!reflect.DeepEqual(cellOf(t, r, "lbm", baselineCell), clean[1][2]) {
		t.Fatalf("baselines diverged under faults")
	}
}

// TestFaultScheduleDeterminism: the same seed and rules must produce the
// same injected-fault counts and the same simulation numbers.
func TestFaultScheduleDeterminism(t *testing.T) {
	rules := mustRules(t, "xz/aqua-memmapped/1000=ecc-flip@p:0.01;xz/aqua-memmapped/1000=refresh-collision@p:0.5")
	run := func() WorkloadRun {
		r := NewRunner(resCfg(rules))
		wr, err := r.Run("xz", SchemeAquaMemMapped, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return wr
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("faulted runs diverged:\na: %+v\nb: %+v", a, b)
	}
	if a.Result.FaultStats.Injected == 0 {
		t.Fatalf("fault schedule never fired")
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
	r := NewRunner(resCfg(nil))
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
	cfg := resCfg(nil)
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
