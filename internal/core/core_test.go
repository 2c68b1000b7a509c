package core

import (
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/mitigation"
	"repro/internal/rng"
	"repro/internal/tracker"
)

func testGeom() dram.Geometry {
	return dram.Geometry{Banks: 4, RowsPerBank: 128, RowBytes: 1024, LineBytes: 64}
}

// newEngine builds a small engine with an exact tracker so tests control
// exactly when mitigations fire.
func newEngine(t *testing.T, mode Mode, rqaRows int, trh int64) (*dram.Rank, *Engine) {
	t.Helper()
	rank := dram.NewRank(testGeom(), dram.DDR4())
	eng := New(rank, Config{
		TRH:     trh,
		Mode:    mode,
		RQARows: rqaRows,
		Tracker: tracker.NewExact(testGeom(), trh/2),
		Seed:    1,
	})
	return rank, eng
}

// hammer drives `acts` activations of the row's *current physical
// location* through the engine, following migrations, and returns the
// accumulated busy time.
func hammer(eng *Engine, install dram.Row, acts int, at dram.PS) dram.PS {
	var busy dram.PS
	for i := 0; i < acts; i++ {
		tr := eng.Translate(install, at)
		busy += eng.OnActivate(tr.PhysRow, at)
		at += 50 * dram.Nanosecond
	}
	return busy
}

// TestFreshEngineFastBitmap pins the construction fast path: the bulk
// bitmap fill plus per-bank strip recompute must land exactly where the
// old full-row predicate sweep did, in both modes and on a geometry
// whose row count is not a multiple of 64 (the partial-word tail).
func TestFreshEngineFastBitmap(t *testing.T) {
	geoms := []dram.Geometry{
		testGeom(),
		{Banks: 3, RowsPerBank: 50, RowBytes: 1024, LineBytes: 64}, // 150 rows: 64-bit tail
	}
	for _, geom := range geoms {
		for _, mode := range []Mode{ModeSRAM, ModeMemMapped} {
			eng := New(dram.NewRank(geom, dram.DDR4()), Config{
				TRH:     40,
				Mode:    mode,
				RQARows: 8,
				Tracker: tracker.NewExact(geom, 20),
				Seed:    1,
			})
			if err := eng.CheckInvariants(); err != nil {
				t.Fatalf("geom %dx%d mode %v: fresh engine: %v",
					geom.Banks, geom.RowsPerBank, mode, err)
			}
			// The tail bits past Rows() must stay clear so the bitmap never
			// claims rows outside the geometry.
			for w := uint64(geom.Rows()); w < uint64(len(eng.fast)*64); w++ {
				if eng.fast[w>>6]&(1<<(w&63)) != 0 {
					t.Fatalf("geom %dx%d mode %v: fast bit set past Rows() at %d",
						geom.Banks, geom.RowsPerBank, mode, w)
				}
			}
		}
	}
}

func TestQuarantineAfterEffectiveThreshold(t *testing.T) {
	_, eng := newEngine(t, ModeSRAM, 8, 40) // migrate every 20 ACTs
	row := testGeom().RowOf(0, 5)
	busy := hammer(eng, row, 19, 0)
	if eng.IsQuarantined(row) {
		t.Fatal("quarantined before threshold")
	}
	if busy != 0 {
		t.Fatal("busy time before any mitigation")
	}
	busy = hammer(eng, row, 1, 0)
	if !eng.IsQuarantined(row) {
		t.Fatal("not quarantined at threshold")
	}
	if busy <= 0 {
		t.Fatal("mitigation consumed no channel time")
	}
	st := eng.Stats()
	if st.Mitigations != 1 || st.RowMigrations != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateRedirectsToRQA(t *testing.T) {
	_, eng := newEngine(t, ModeSRAM, 8, 40)
	row := testGeom().RowOf(1, 9)
	hammer(eng, row, 20, 0)
	tr := eng.Translate(row, 0)
	if tr.PhysRow == row {
		t.Fatal("translate still points at the original location")
	}
	// The destination is in the reserved top strip of a bank.
	idx := testGeom().IndexOf(tr.PhysRow)
	if idx < testGeom().RowsPerBank-eng.rqaRowsPerBank {
		t.Fatalf("destination row index %d is not in the RQA strip", idx)
	}
	// Other rows unaffected.
	other := testGeom().RowOf(1, 10)
	if got := eng.Translate(other, 0); got.PhysRow != other {
		t.Fatal("unrelated row translated")
	}
}

func TestInternalMigrationWithinRQA(t *testing.T) {
	_, eng := newEngine(t, ModeSRAM, 8, 40)
	row := testGeom().RowOf(0, 5)
	hammer(eng, row, 20, 0)
	first := eng.Translate(row, 0).PhysRow
	// Keep hammering: the quarantined location itself crosses the
	// threshold (property P3) and must move within the RQA.
	hammer(eng, row, 20, dram.PS(1)*dram.Millisecond)
	second := eng.Translate(row, 0).PhysRow
	if second == first || second == row {
		t.Fatalf("internal migration missing: %d -> %d", first, second)
	}
	st := eng.Stats()
	if st.Mitigations != 2 {
		t.Fatalf("mitigations = %d", st.Mitigations)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLazyEvictionOnWrap(t *testing.T) {
	geom := testGeom()
	_, eng := newEngine(t, ModeSRAM, 2, 40)
	a, b, c := geom.RowOf(0, 1), geom.RowOf(1, 1), geom.RowOf(2, 1)
	hammer(eng, a, 20, 0)
	hammer(eng, b, 20, dram.Millisecond)
	eng.OnEpoch(64 * dram.Millisecond) // next epoch: slots become stale
	hammer(eng, c, 20, 65*dram.Millisecond)
	st := eng.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
	if eng.IsQuarantined(a) {
		t.Fatal("evicted row still mapped")
	}
	if got := eng.Translate(a, 0); got.PhysRow != a {
		t.Fatal("evicted row not restored to original location")
	}
	if !eng.IsQuarantined(b) || !eng.IsQuarantined(c) {
		t.Fatal("wrong slot evicted")
	}
	if st.ReuseViolations != 0 {
		t.Fatalf("reuse violations = %d (eviction crossed epochs)", st.ReuseViolations)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReuseViolationDetectedWhenUndersized(t *testing.T) {
	geom := testGeom()
	_, eng := newEngine(t, ModeSRAM, 2, 40)
	// Three quarantines in one epoch with a 2-slot RQA: the third reuses
	// a slot installed this epoch.
	hammer(eng, geom.RowOf(0, 1), 20, 0)
	hammer(eng, geom.RowOf(1, 1), 20, 0)
	hammer(eng, geom.RowOf(2, 1), 20, 0)
	if eng.Stats().ReuseViolations == 0 {
		t.Fatal("undersized RQA reuse not detected")
	}
}

func TestProperlySizedRQANeverReuses(t *testing.T) {
	// Equation 3 sizing (the default) must keep ReuseViolations at zero
	// even under a worst-case quarantine-rate attack within one epoch:
	// here we force many quarantines with a generous RQA.
	geom := testGeom()
	_, eng := newEngine(t, ModeSRAM, 64, 40)
	at := dram.PS(0)
	for i := 0; i < 32; i++ {
		hammer(eng, geom.RowOf(i%4, 1+i/4), 20, at)
		at += 10 * dram.Microsecond
	}
	if v := eng.Stats().ReuseViolations; v != 0 {
		t.Fatalf("reuse violations = %d", v)
	}
}

func TestLookupClassesMemMapped(t *testing.T) {
	geom := testGeom()
	_, eng := newEngine(t, ModeMemMapped, 8, 40)

	// Fresh row: bloom bit clear.
	r0 := geom.RowOf(0, 5)
	if tr := eng.Translate(r0, 0); tr.Class != mitigation.LookupBloomFiltered {
		t.Fatalf("fresh row class = %v", tr.Class)
	}

	// Quarantined row: present in the FPT-Cache after the mitigation.
	hammer(eng, r0, 20, 0)
	if tr := eng.Translate(r0, 0); tr.Class != mitigation.LookupCacheHit {
		t.Fatalf("quarantined row class = %v", tr.Class)
	}

	// Same-group sibling (group size 16, rows (0,5) and (0,6) share the
	// bloom group): bloom positive, cache miss, singleton bit proves
	// non-residency.
	sibling := geom.RowOf(0, 6)
	if tr := eng.Translate(sibling, 0); tr.Class != mitigation.LookupSingleton {
		t.Fatalf("sibling class = %v", tr.Class)
	}

	// Quarantine a second row of the group: no longer a singleton, so a
	// third sibling must walk to DRAM.
	hammer(eng, sibling, 20, dram.Millisecond)
	third := geom.RowOf(0, 7)
	if tr := eng.Translate(third, 2*dram.Millisecond); tr.Class != mitigation.LookupDRAM {
		t.Fatalf("third sibling class = %v", tr.Class)
	}
	if eng.Stats().TableDRAMAccesses == 0 {
		t.Fatal("DRAM walk not accounted")
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLookupClassSRAMMode(t *testing.T) {
	_, eng := newEngine(t, ModeSRAM, 8, 40)
	row := testGeom().RowOf(0, 5)
	tr := eng.Translate(row, 0)
	if tr.Class != mitigation.LookupSRAM {
		t.Fatalf("class = %v", tr.Class)
	}
	if tr.Latency <= 0 {
		t.Fatal("SRAM lookup has no latency")
	}
	if eng.CATFailures() != 0 {
		t.Fatal("CAT failures on empty engine")
	}
}

func TestPinnedTableRows(t *testing.T) {
	geom := testGeom()
	_, eng := newEngine(t, ModeMemMapped, 8, 40)
	// The table strip sits just below the RQA strip.
	tableRow := geom.RowOf(0, geom.RowsPerBank-eng.rqaRowsPerBank-1)
	if !eng.isTableRow(tableRow) {
		t.Fatal("expected a table row in the reserved strip")
	}
	if tr := eng.Translate(tableRow, 0); tr.Class != mitigation.LookupPinned {
		t.Fatalf("table row class = %v", tr.Class)
	}
}

func TestTableRowsCanBeQuarantined(t *testing.T) {
	// Section VI-B: hammering the rows that hold AQUA's own tables must
	// quarantine them like any other row (PTHammer defence).
	geom := testGeom()
	_, eng := newEngine(t, ModeMemMapped, 8, 40)
	tableRow := geom.RowOf(0, geom.RowsPerBank-eng.rqaRowsPerBank-1)
	hammer(eng, tableRow, 20, 0)
	if !eng.IsQuarantined(tableRow) {
		t.Fatal("table row not quarantined")
	}
	if tr := eng.Translate(tableRow, 0); tr.PhysRow == tableRow || tr.Class != mitigation.LookupPinned {
		t.Fatalf("pinned translate after quarantine: %+v", tr)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEpochResetsTrackerOnly(t *testing.T) {
	geom := testGeom()
	_, eng := newEngine(t, ModeSRAM, 8, 40)
	row := geom.RowOf(0, 5)
	hammer(eng, row, 20, 0)
	eng.OnEpoch(64 * dram.Millisecond)
	if !eng.IsQuarantined(row) {
		t.Fatal("epoch reset dropped the FPT mapping (must drain lazily)")
	}
	// 19 more ACTs do not re-trigger (tracker was reset).
	before := eng.Stats().Mitigations
	hammer(eng, row, 19, 65*dram.Millisecond)
	if eng.Stats().Mitigations != before {
		t.Fatal("tracker not reset at epoch")
	}
}

func TestMitigationBusyTimeMatchesTiming(t *testing.T) {
	geom := testGeom()
	rank, eng := newEngine(t, ModeSRAM, 8, 40)
	row := geom.RowOf(0, 5)
	busy := hammer(eng, row, 20, 0)
	// One quarantine without eviction: ~one migration = 2 row streams.
	want := rank.Timing().MigrationTime(geom.LinesPerRow())
	if busy < want || busy > want*2 {
		t.Fatalf("busy = %d, want ~%d", busy, want)
	}
}

func TestDefaultRQASizeFromEquation3(t *testing.T) {
	rank := dram.NewRank(dram.Baseline(), dram.DDR4())
	eng := New(rank, Config{TRH: 1000, Mode: ModeSRAM})
	if got := eng.RQASize(); got != 23053 {
		t.Fatalf("default RQA = %d, want 23053 (Table III)", got)
	}
}

func TestVisibleRowsExcludeReservedStrips(t *testing.T) {
	_, eng := newEngine(t, ModeMemMapped, 8, 40)
	geom := testGeom()
	vis := eng.VisibleRowsPerBank()
	if vis >= geom.RowsPerBank {
		t.Fatal("no rows reserved")
	}
	// 8 RQA rows over 4 banks = 2 per bank, plus at least 1 table row.
	if vis > geom.RowsPerBank-3 {
		t.Fatalf("visible = %d, want <= %d", vis, geom.RowsPerBank-3)
	}
}

func TestTranslatePanicsOnRQARow(t *testing.T) {
	_, eng := newEngine(t, ModeSRAM, 8, 40)
	geom := testGeom()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	eng.Translate(geom.RowOf(0, geom.RowsPerBank-1), 0)
}

func TestRandomizedInvariantProperty(t *testing.T) {
	// Property: after an arbitrary mix of hammering, epochs, and
	// re-hammering, the FPT/RPT/bloom state is always mutually consistent
	// and the CAT never overflows.
	geom := testGeom()
	check := func(seed uint64) bool {
		for _, mode := range []Mode{ModeSRAM, ModeMemMapped} {
			_, eng := newEngine(t, mode, 16, 20)
			r := rng.New(seed)
			at := dram.PS(0)
			for op := 0; op < 120; op++ {
				switch r.Intn(10) {
				case 9:
					eng.OnEpoch(at)
				default:
					row := geom.RowOf(r.Intn(4), r.Intn(eng.VisibleRowsPerBank()))
					n := 1 + r.Intn(12)
					hammer(eng, row, n, at)
				}
				at += 100 * dram.Microsecond
			}
			if eng.CheckInvariants() != nil {
				return false
			}
			if mode == ModeSRAM && eng.CATFailures() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsReset(t *testing.T) {
	_, eng := newEngine(t, ModeMemMapped, 8, 40)
	hammer(eng, testGeom().RowOf(0, 5), 20, 0)
	eng.StatsReset()
	st := eng.Stats()
	if st.Mitigations != 0 || st.TotalLookups() != 0 {
		t.Fatal("stats reset incomplete")
	}
	if !eng.IsQuarantined(testGeom().RowOf(0, 5)) {
		t.Fatal("stats reset dropped engine state")
	}
}

func TestModeString(t *testing.T) {
	if ModeSRAM.String() != "sram" || ModeMemMapped.String() != "memmapped" {
		t.Fatal("mode names")
	}
	_, eng := newEngine(t, ModeMemMapped, 8, 40)
	if eng.Name() != "aqua-memmapped" {
		t.Fatalf("name = %s", eng.Name())
	}
}

func TestEffectiveThreshold(t *testing.T) {
	if (Config{TRH: 1000}).EffectiveThreshold() != 500 {
		t.Fatal("effective threshold")
	}
	if (Config{TRH: 1}).EffectiveThreshold() != 1 {
		t.Fatal("floor of 1")
	}
}

func TestProactiveDrainClearsStaleEntries(t *testing.T) {
	geom := testGeom()
	rank := dram.NewRank(geom, dram.DDR4())
	eng := New(rank, Config{
		TRH: 40, Mode: ModeSRAM, RQARows: 4,
		Tracker:        tracker.NewExact(geom, 20),
		ProactiveDrain: true,
	})
	// Fill two slots in epoch 0.
	hammer(eng, geom.RowOf(0, 1), 20, 0)
	hammer(eng, geom.RowOf(1, 1), 20, 0)
	eng.OnEpoch(64 * dram.Millisecond)

	// Idle time: the drainer evicts the stale entries one at a time.
	busy := eng.OnIdle(65 * dram.Millisecond)
	if busy <= 0 {
		t.Fatal("first OnIdle drained nothing")
	}
	if eng.OnIdle(66*dram.Millisecond) <= 0 {
		t.Fatal("second OnIdle drained nothing")
	}
	if eng.OnIdle(67*dram.Millisecond) != 0 {
		t.Fatal("third OnIdle drained a ghost")
	}
	st := eng.Stats()
	if st.ProactiveDrains != 2 || st.Evictions != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if eng.IsQuarantined(geom.RowOf(0, 1)) || eng.IsQuarantined(geom.RowOf(1, 1)) {
		t.Fatal("drained rows still mapped")
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A quarantine now pays only the move-in, not an eviction.
	before := eng.Stats().RowMigrations
	busy = hammer(eng, geom.RowOf(2, 1), 20, 70*dram.Millisecond)
	if eng.Stats().RowMigrations-before != 1 {
		t.Fatalf("quarantine after drain cost %d migrations, want 1",
			eng.Stats().RowMigrations-before)
	}
	want := rank.Timing().MigrationTime(geom.LinesPerRow())
	if busy > want*3/2 {
		t.Fatalf("busy = %d, want ~%d (no eviction on critical path)", busy, want)
	}
}

func TestProactiveDrainDisabledByDefault(t *testing.T) {
	_, eng := newEngine(t, ModeSRAM, 4, 40)
	hammer(eng, testGeom().RowOf(0, 1), 20, 0)
	eng.OnEpoch(64 * dram.Millisecond)
	if eng.OnIdle(65*dram.Millisecond) != 0 {
		t.Fatal("drain ran while disabled")
	}
}

func TestProactiveDrainSkipsCurrentEpochEntries(t *testing.T) {
	geom := testGeom()
	rank := dram.NewRank(geom, dram.DDR4())
	_ = rank
	r2 := dram.NewRank(geom, dram.DDR4())
	eng := New(r2, Config{
		TRH: 40, Mode: ModeSRAM, RQARows: 4,
		Tracker:        tracker.NewExact(geom, 20),
		ProactiveDrain: true,
	})
	hammer(eng, geom.RowOf(0, 1), 20, 0)
	// Same epoch: the fresh entry must not be drained.
	if eng.OnIdle(dram.Millisecond) != 0 {
		t.Fatal("drained a current-epoch entry")
	}
	if !eng.IsQuarantined(geom.RowOf(0, 1)) {
		t.Fatal("fresh quarantine lost")
	}
}

// TestProactiveDrainHalvesCriticalPath checks the Section IV-D note: a
// quarantine whose RQA slot still holds last epoch's entry pays the
// eviction and the move-in on the critical path, unless the background
// drainer emptied the slot during idle time. The paper's arithmetic is
// 2.74 us vs 1.37 us per quarantine. This test's small rows make every
// migration shorter, so it checks the ratio: four quarantines over stale
// slots measure 2.287 us without the drainer and 1.114 us with it
// (2.05x), and the drained path must stay at least 1.9x shorter.
func TestProactiveDrainHalvesCriticalPath(t *testing.T) {
	geom := dram.Geometry{Banks: 4, RowsPerBank: 512, RowBytes: 1024, LineBytes: 64}
	measure := func(drain bool) dram.PS {
		eng := New(dram.NewRank(geom, dram.DDR4()), Config{
			TRH: 40, Mode: ModeSRAM, RQARows: 8,
			Tracker:        tracker.NewExact(geom, 20),
			ProactiveDrain: drain,
		})
		at := dram.PS(0)
		quarantine := func(row dram.Row) dram.PS {
			busy := hammer(eng, row, 20, at)
			at += 20 * 50 * dram.Nanosecond
			return busy
		}
		// Epoch 0: fill all 8 slots.
		for i := 0; i < 8; i++ {
			quarantine(geom.RowOf(i%4, 1+i/4))
		}
		eng.OnEpoch(64 * dram.Millisecond)
		at = 65 * dram.Millisecond
		if drain {
			for eng.OnIdle(at) > 0 {
				at += 10 * dram.Microsecond
			}
		}
		// Epoch 1: the next quarantines reuse stale slots; without the
		// drain each pays an eviction on the critical path.
		var busy dram.PS
		for i := 0; i < 4; i++ {
			busy += quarantine(geom.RowOf(i, 100+i))
		}
		return busy
	}
	without, with := measure(false), measure(true)
	ratio := float64(without) / float64(with)
	t.Logf("critical path of 4 quarantines over stale slots: %.3f us without the drainer, %.3f us with it (%.2fx)",
		float64(without)/1e6, float64(with)/1e6, ratio)
	if ratio < 1.9 {
		t.Fatalf("proactive drain shortened the critical path only %.2fx (%d -> %d ps), want >= 1.9x",
			ratio, without, with)
	}
}

func TestModesMakeIdenticalQuarantineDecisions(t *testing.T) {
	// SRAM and memory-mapped tables are two implementations of one
	// mechanism: driven by the same activation sequence they must
	// quarantine the same rows into the same slots — only lookup costs
	// differ. (The memory-mapped engine's own table accesses add ACTs to
	// table rows, so the property is checked over visible rows only,
	// which the sequence below confines itself to.)
	geom := testGeom()
	check := func(seed uint64) bool {
		_, sram := newEngine(t, ModeSRAM, 16, 40)
		_, mm := newEngine(t, ModeMemMapped, 16, 40)
		r := rng.New(seed)
		at := dram.PS(0)
		for op := 0; op < 60; op++ {
			row := geom.RowOf(r.Intn(4), r.Intn(mm.VisibleRowsPerBank()))
			n := 1 + r.Intn(25)
			hammer(sram, row, n, at)
			hammer(mm, row, n, at)
			at += 100 * dram.Microsecond
			if r.Intn(12) == 0 {
				sram.OnEpoch(at)
				mm.OnEpoch(at)
			}
		}
		for row := 0; row < geom.Rows(); row++ {
			x := dram.Row(row)
			if mm.isTableRow(x) {
				continue
			}
			if _, isSlot := sram.rowSlot(x); isSlot {
				continue
			}
			if sram.IsQuarantined(x) != mm.IsQuarantined(x) {
				return false
			}
			if sram.physRow(x) != mm.physRow(x) {
				return false
			}
		}
		return sram.CheckInvariants() == nil && mm.CheckInvariants() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestHeadSkipsSameEpochSlots(t *testing.T) {
	// Wrap the head into territory used this epoch: the destination scan
	// must skip those slots — in particular, an internal migration must
	// never self-copy into the slot the row is leaving.
	geom := testGeom()
	_, eng := newEngine(t, ModeSRAM, 3, 40)
	a, bRow, c := geom.RowOf(0, 1), geom.RowOf(1, 1), geom.RowOf(2, 1)
	hammer(eng, a, 20, 0)    // slot 0
	hammer(eng, bRow, 20, 0) // slot 1
	hammer(eng, c, 20, 0)    // slot 2; head wraps to 0
	// Keep hammering `a` at its quarantine slot: slot 0 retires and the
	// destination must be a *different* physical row even though head==0.
	before := eng.Translate(a, 0).PhysRow
	hammer(eng, a, 20, dram.Millisecond)
	after := eng.Translate(a, 0).PhysRow
	if after == before {
		t.Fatal("internal migration self-copied into the retiring slot")
	}
	// All three slots were used this epoch, so this forced reuse is
	// reported.
	if eng.Stats().ReuseViolations == 0 {
		t.Fatal("undersized forced reuse not reported")
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
