package vrefresh

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/tracker"
)

func testGeom() dram.Geometry {
	return dram.Geometry{Banks: 2, RowsPerBank: 128, RowBytes: 1024, LineBytes: 64}
}

func newEngine(t *testing.T, trh int64, distance int, onRefresh func(dram.Row, dram.PS)) *Engine {
	t.Helper()
	rank := dram.NewRank(testGeom(), dram.DDR4())
	if onRefresh != nil {
		rank.ListenRefresh(onRefresh)
	}
	return New(rank, Config{
		TRH:             trh,
		RefreshDistance: distance,
		Tracker:         tracker.NewExact(testGeom(), trh/2),
	})
}

func TestNeighborsRefreshedAtThreshold(t *testing.T) {
	var refreshed []dram.Row
	e := newEngine(t, 40, 1, func(r dram.Row, _ dram.PS) { refreshed = append(refreshed, r) })
	aggr := testGeom().RowOf(0, 10)
	var busy dram.PS
	for i := 0; i < 20; i++ {
		busy += e.OnActivate(aggr, dram.PS(i)*1000)
	}
	if len(refreshed) != 2 {
		t.Fatalf("refreshed %v", refreshed)
	}
	want := map[dram.Row]bool{
		testGeom().RowOf(0, 9):  true,
		testGeom().RowOf(0, 11): true,
	}
	for _, r := range refreshed {
		if !want[r] {
			t.Fatalf("unexpected victim %d", r)
		}
	}
	if busy <= 0 {
		t.Fatal("victim refresh consumed no channel time")
	}
	st := e.Stats()
	if st.Mitigations != 1 || st.VictimRefreshes != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDistanceTwoRefreshesFourRows(t *testing.T) {
	var refreshed []dram.Row
	e := newEngine(t, 40, 2, func(r dram.Row, _ dram.PS) { refreshed = append(refreshed, r) })
	for i := 0; i < 20; i++ {
		e.OnActivate(testGeom().RowOf(0, 10), dram.PS(i)*1000)
	}
	if len(refreshed) != 4 {
		t.Fatalf("refreshed %d rows, want 4", len(refreshed))
	}
}

func TestEdgeRowRefreshesOneNeighbor(t *testing.T) {
	var refreshed []dram.Row
	e := newEngine(t, 40, 1, func(r dram.Row, _ dram.PS) { refreshed = append(refreshed, r) })
	for i := 0; i < 20; i++ {
		e.OnActivate(testGeom().RowOf(0, 0), dram.PS(i)*1000)
	}
	if len(refreshed) != 1 {
		t.Fatalf("refreshed %v", refreshed)
	}
}

func TestNoActionBelowThreshold(t *testing.T) {
	e := newEngine(t, 40, 1, nil)
	for i := 0; i < 19; i++ {
		if busy := e.OnActivate(testGeom().RowOf(0, 10), dram.PS(i)); busy != 0 {
			t.Fatal("action below threshold")
		}
	}
	if e.Stats().Mitigations != 0 {
		t.Fatal("mitigated below threshold")
	}
}

func TestTranslateIsIdentity(t *testing.T) {
	e := newEngine(t, 40, 1, nil)
	row := testGeom().RowOf(1, 5)
	if tr := e.Translate(row, 0); tr.PhysRow != row {
		t.Fatal("victim refresh must not remap rows")
	}
	if e.Delay(row, 7) != 7 {
		t.Fatal("victim refresh must not throttle")
	}
}

func TestEpochResetsTracker(t *testing.T) {
	e := newEngine(t, 40, 1, nil)
	row := testGeom().RowOf(0, 10)
	for i := 0; i < 19; i++ {
		e.OnActivate(row, dram.PS(i))
	}
	e.OnEpoch(64 * dram.Millisecond)
	// One more ACT is now 1/20, not 20/20.
	if busy := e.OnActivate(row, 65*dram.Millisecond); busy != 0 {
		t.Fatal("tracker survived epoch")
	}
}

func TestName(t *testing.T) {
	if newEngine(t, 40, 1, nil).Name() != "victim-refresh" {
		t.Fatal("name")
	}
}

func TestDefaultTrackerProvisioned(t *testing.T) {
	// nil Tracker: the engine provisions a Misra-Gries tracker at TRH/2.
	rank := dram.NewRank(testGeom(), dram.DDR4())
	e := New(rank, Config{TRH: 40})
	aggr := testGeom().RowOf(0, 10)
	var mitigated bool
	for i := 0; i < 25; i++ {
		if e.OnActivate(aggr, dram.PS(i)*1000) > 0 {
			mitigated = true
			break
		}
	}
	if !mitigated {
		t.Fatal("default tracker never triggered")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}
	cfg.fillDefaults()
	if cfg.TRH != 1000 || cfg.RefreshDistance != 1 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if (Config{TRH: 1}).EffectiveThreshold() != 1 {
		t.Fatal("threshold floor")
	}
}
