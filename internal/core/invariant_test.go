package core

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/tracker"
)

func invGeom() dram.Geometry {
	return dram.Geometry{Banks: 4, RowsPerBank: 128, RowBytes: 1024, LineBytes: 64}
}

// newInvEngine builds a small engine with the checker installed and a low
// threshold so a short hammer burst triggers quarantines.
func newInvEngine(t *testing.T, chk *invariant.Checker) *Engine {
	t.Helper()
	geom := invGeom()
	rank := dram.NewRank(geom, dram.DDR4())
	return New(rank, Config{
		TRH:        16,
		Mode:       ModeSRAM,
		RQARows:    12,
		Tracker:    tracker.NewExact(geom, 8),
		Invariants: chk,
	})
}

// hammerAt drives enough activations on a row to cross the quarantine
// threshold, calling Translate and OnActivate as the controller would
// for a request's ACT, and returns the advanced time (core_test.go's
// hammer returns busy time). The engine's own migrations' ACTs reach no
// tracker this way; FuzzCore drives the engine through a controller.
func hammerAt(e *Engine, row dram.Row, n int, at dram.PS) dram.PS {
	for i := 0; i < n; i++ {
		tr := e.Translate(row, at)
		e.OnActivate(tr.PhysRow, at)
		at += 50 * dram.Nanosecond
	}
	return at
}

func TestEngineInvariantsCleanRun(t *testing.T) {
	chk := invariant.New()
	e := newInvEngine(t, chk)
	geom := invGeom()
	at := dram.PS(0)
	for b := 0; b < geom.Banks; b++ {
		at = hammerAt(e, geom.RowOf(b, b*3), 20, at)
	}
	e.OnEpoch(at)
	at += dram.Millisecond
	at = hammerAt(e, geom.RowOf(0, 7), 20, at)
	e.OnEpoch(at)
	if err := chk.Err(); err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
	if e.QuarantinedCount() == 0 {
		t.Fatal("hammering quarantined nothing; test exercised no mitigation")
	}
}

// TestCorruptedFPTEntryDetected flips one forward pointer to a slot the
// RPT does not agree with; the epoch-boundary sweep must report it.
func TestCorruptedFPTEntryDetected(t *testing.T) {
	chk := invariant.New()
	e := newInvEngine(t, chk)
	geom := invGeom()
	at := hammerAt(e, geom.RowOf(0, 3), 20, 0)
	if e.QuarantinedCount() == 0 {
		t.Fatal("setup failed: nothing quarantined")
	}

	// Corrupt: point a never-quarantined row at slot 0 behind the
	// engine's back, breaking the FPT<->RPT bijection.
	victim := geom.RowOf(1, 9)
	if e.IsQuarantined(victim) {
		t.Fatalf("row %d unexpectedly quarantined", victim)
	}
	e.fptSlot.Set(victim, 0)

	e.OnEpoch(at)
	if chk.Count() == 0 {
		t.Fatal("corrupted FPT entry went undetected")
	}
	var sawStructural bool
	for _, v := range chk.Violations() {
		if v.Component == "core" && v.Rule == "structural" {
			sawStructural = true
		}
	}
	if !sawStructural {
		t.Fatalf("no core/structural violation among: %v", chk.Violations())
	}
}

// TestUndersizedRQAOverflowDetected shrinks the RQA to fewer slots than
// concurrent aggressors; the occupancy and reuse accounting must surface
// rather than silently wrap.
func TestUndersizedRQAOverflowDetected(t *testing.T) {
	chk := invariant.New()
	geom := invGeom()
	rank := dram.NewRank(geom, dram.DDR4())
	e := New(rank, Config{
		TRH:        16,
		Mode:       ModeSRAM,
		RQARows:    2,
		Tracker:    tracker.NewExact(geom, 8),
		Invariants: chk,
	})
	at := dram.PS(0)
	for i := 0; i < 6; i++ {
		at = hammerAt(e, geom.RowOf(i%geom.Banks, 2+i), 20, at)
	}
	e.OnEpoch(at)
	// Slot reuse within the epoch is the expected failure mode here; the
	// occupancy invariant itself must still hold.
	if e.Stats().ReuseViolations == 0 {
		t.Fatal("undersized RQA recorded no reuse violations")
	}
	if err := chk.Err(); err != nil {
		t.Fatalf("occupancy invariant broke under reuse pressure: %v", err)
	}
}
