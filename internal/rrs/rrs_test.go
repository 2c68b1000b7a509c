package rrs

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/rng"
	"repro/internal/tracker"
)

func testGeom() dram.Geometry {
	return dram.Geometry{Banks: 4, RowsPerBank: 128, RowBytes: 1024, LineBytes: 64}
}

func newEngine(t *testing.T, trh int64) (*dram.Rank, *Engine) {
	t.Helper()
	rank := dram.NewRank(testGeom(), dram.DDR4())
	eng := New(rank, Config{
		TRH:     trh,
		Tracker: tracker.NewExact(testGeom(), trh/SwapDivisor),
		Seed:    2,
	})
	return rank, eng
}

// asymmetricPair returns a partner link x->p whose reverse link p->x is
// missing, or nil when every link is mutual.
func asymmetricPair(eng *Engine) []dram.Row {
	var bad []dram.Row
	eng.partner.Range(func(x dram.Row, p int32) bool {
		if back, ok := eng.Partner(dram.Row(p)); !ok || back != x {
			bad = []dram.Row{x, dram.Row(p)}
		}
		return bad == nil
	})
	return bad
}

func hammer(eng *Engine, install dram.Row, acts int, at dram.PS) dram.PS {
	var busy dram.PS
	for i := 0; i < acts; i++ {
		tr := eng.Translate(install, at)
		busy += eng.OnActivate(tr.PhysRow, at)
		at += 50 * dram.Nanosecond
	}
	return busy
}

func TestSwapThresholdIsOneSixth(t *testing.T) {
	if (Config{TRH: 1000}).SwapThreshold() != 166 {
		t.Fatal("swap threshold")
	}
	if (Config{TRH: 3}).SwapThreshold() != 1 {
		t.Fatal("floor of 1")
	}
}

func TestSwapRedirectsAccess(t *testing.T) {
	_, eng := newEngine(t, 60) // swap every 10 ACTs
	row := testGeom().RowOf(0, 5)
	hammer(eng, row, 10, 0)
	p, swapped := eng.Partner(row)
	if !swapped {
		t.Fatal("row not swapped at threshold")
	}
	tr := eng.Translate(row, 0)
	if tr.PhysRow != p {
		t.Fatal("translate does not follow the swap")
	}
	if tr.Class != mitigation.LookupSRAM {
		t.Fatalf("class = %v", tr.Class)
	}
	// The partner's accesses route to the original location (symmetric
	// swap).
	if back := eng.Translate(p, 0); back.PhysRow != row {
		t.Fatal("swap not symmetric")
	}
	if eng.SwappedPairs() != 1 {
		t.Fatalf("pairs = %d", eng.SwappedPairs())
	}
}

func TestFirstSwapCostsTwoMigrations(t *testing.T) {
	rank, eng := newEngine(t, 60)
	row := testGeom().RowOf(0, 5)
	busy := hammer(eng, row, 10, 0)
	st := eng.Stats()
	if st.Mitigations != 1 || st.RowMigrations != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// A swap streams four rows (two reads + two writes) ~= 2 migrations.
	want := 2 * rank.Timing().MigrationTime(testGeom().LinesPerRow())
	if busy < want*9/10 || busy > want*2 {
		t.Fatalf("swap busy = %d, want ~%d", busy, want)
	}
}

func TestReswapCostsFourMigrations(t *testing.T) {
	_, eng := newEngine(t, 60)
	row := testGeom().RowOf(0, 5)
	hammer(eng, row, 10, 0)
	first := eng.Stats().RowMigrations
	// Keep hammering the same install row: the new physical location
	// crosses the threshold and the existing pair must dissolve first
	// (Section IV-F: 4 row migrations).
	hammer(eng, row, 10, dram.Millisecond)
	delta := eng.Stats().RowMigrations - first
	if delta != 4 {
		t.Fatalf("re-swap cost %d migrations, want 4", delta)
	}
}

func TestDestinationNeverSelf(t *testing.T) {
	check := func(seed uint64) bool {
		rank := dram.NewRank(testGeom(), dram.DDR4())
		eng := New(rank, Config{TRH: 60, Seed: seed,
			Tracker: tracker.NewExact(testGeom(), 10)})
		r := rng.New(seed)
		for i := 0; i < 20; i++ {
			row := testGeom().RowOf(r.Intn(4), r.Intn(100))
			hammer(eng, row, 10, dram.PS(i)*dram.Millisecond)
			if p, ok := eng.Partner(row); ok && p == row {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPairsSymmetricProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rank := dram.NewRank(testGeom(), dram.DDR4())
		eng := New(rank, Config{TRH: 60, Seed: seed,
			Tracker: tracker.NewExact(testGeom(), 10)})
		r := rng.New(seed ^ 0xbeef)
		at := dram.PS(0)
		for i := 0; i < 40; i++ {
			row := testGeom().RowOf(r.Intn(4), r.Intn(eng.geom.RowsPerBank))
			hammer(eng, row, 1+r.Intn(12), at)
			at += 100 * dram.Microsecond
		}
		// Every partner link must be mutual.
		return asymmetricPair(eng) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEpochDissolvesPairsLazily(t *testing.T) {
	_, eng := newEngine(t, 60)
	row := testGeom().RowOf(0, 5)
	hammer(eng, row, 10, 0)
	migrBefore := eng.Stats().RowMigrations
	eng.OnEpoch(64 * dram.Millisecond)
	if eng.SwappedPairs() != 0 {
		t.Fatal("pairs survived the epoch")
	}
	if tr := eng.Translate(row, 0); tr.PhysRow != row {
		t.Fatal("stale mapping after epoch")
	}
	// The lazy unswap is off the critical path: not charged as
	// trigger-driven migrations (Appendix A accounting).
	if eng.Stats().RowMigrations != migrBefore {
		t.Fatal("epoch unswap charged to migrations")
	}
}

func TestTranslateIdentityWhenUnswapped(t *testing.T) {
	_, eng := newEngine(t, 60)
	row := testGeom().RowOf(2, 7)
	if tr := eng.Translate(row, 0); tr.PhysRow != row || tr.Latency <= 0 {
		t.Fatalf("identity translate: %+v", tr)
	}
}

func TestName(t *testing.T) {
	_, eng := newEngine(t, 60)
	if eng.Name() != "rrs" {
		t.Fatal("name")
	}
}

func TestCrowdedDestinationSpaceStillSwaps(t *testing.T) {
	// Force the destination draw to collide with existing pairs: with a
	// tiny swappable space, repeated swaps must dissolve old pairs rather
	// than fail, and links must stay symmetric.
	rank := dram.NewRank(testGeom(), dram.DDR4())
	eng := New(rank, Config{
		TRH:              60,
		Seed:             5,
		Tracker:          tracker.NewExact(testGeom(), 10),
		MaxSwappableRows: 6,
	})
	at := dram.PS(0)
	for i := 0; i < 8; i++ {
		row := testGeom().RowOf(0, i)
		hammer(eng, row, 10, at)
		at += dram.Millisecond
	}
	if pair := asymmetricPair(eng); pair != nil {
		t.Fatalf("asymmetric pair after crowded swaps: %d<->%d", pair[0], pair[1])
	}
	if eng.Stats().Mitigations == 0 {
		t.Fatal("no swaps happened")
	}
}

func TestDefaultTrackerProvisioned(t *testing.T) {
	rank := dram.NewRank(testGeom(), dram.DDR4())
	eng := New(rank, Config{TRH: 60, Seed: 1}) // nil tracker -> MG at TRH/6
	row := testGeom().RowOf(0, 5)
	hammer(eng, row, 10, 0)
	if eng.Stats().Mitigations == 0 {
		t.Fatal("default tracker never triggered")
	}
}

// TestWarmMitigationsDoNotAllocate holds RRS's mitigation path to zero
// allocations once warm. It counts runtime mallocs across a whole burst
// of mitigations rather than using testing.AllocsPerRun, which rounds a
// fractional per-ACT rate down to zero. The requests go through a memory
// controller, so its ACT feed, and the swaps' own ACTs it feeds back, are
// inside the measurement. The round-robin hammer swaps every row of the
// test rank many times over, so the warm-up leaves the partner map, the
// tracker and the controller's ACT queue at their steady-state sizes.
func TestWarmMitigationsDoNotAllocate(t *testing.T) {
	rank := dram.NewRank(testGeom(), dram.DDR4())
	eng := New(rank, Config{TRH: 60, Seed: 1}) // default Misra-Gries tracker
	c := memctrl.New(rank, eng, memctrl.Config{})
	rows := testGeom().Rows()
	at := dram.PS(0)
	i := 0
	mitigate := func(n int64) {
		for target := eng.Stats().Mitigations + n; eng.Stats().Mitigations < target; i++ {
			at = c.Submit(dram.Row(i*7%rows), false, at)
		}
	}
	mitigate(1250)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mitigate(1250)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("1250 warm mitigations made %d mallocs, want 0", n)
	}
}
