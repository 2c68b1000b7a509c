package memctrl

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mitigation"
	"repro/internal/tracker"
)

func testGeom() dram.Geometry {
	return dram.Geometry{Banks: 4, RowsPerBank: 128, RowBytes: 1024, LineBytes: 64}
}

func newCtrl(t *testing.T, mit mitigation.Mitigator, cfg Config) (*dram.Rank, *Controller) {
	t.Helper()
	rank := dram.NewRank(testGeom(), dram.DDR4())
	return rank, New(rank, mit, cfg)
}

func TestSubmitCompletesAndCounts(t *testing.T) {
	_, c := newCtrl(t, nil, Config{})
	row := testGeom().RowOf(0, 1)
	done := c.Submit(row, false, 0)
	if done <= 0 {
		t.Fatal("no latency")
	}
	st := c.Stats()
	if st.Requests != 1 || st.Reads != 1 || st.Writes != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AvgLatency() != done {
		t.Fatalf("avg latency = %d, want %d", st.AvgLatency(), done)
	}
	c.Submit(row, true, done)
	if c.Stats().Writes != 1 {
		t.Fatal("write not counted")
	}
}

func TestRefreshScheduledEveryTREFI(t *testing.T) {
	rank, c := newCtrl(t, nil, Config{})
	c.Advance(10 * rank.Timing().TREFI)
	st := c.Stats()
	if st.Refreshes != 10 {
		t.Fatalf("refreshes = %d, want 10", st.Refreshes)
	}
	if rank.Stats().Refreshes != 10 {
		t.Fatal("rank did not see the refreshes")
	}
}

func TestEpochFiresEveryEpochLength(t *testing.T) {
	epochs := 0
	mit := &epochCounter{onEpoch: func() { epochs++ }}
	_, c := newCtrl(t, mit, Config{EpochLength: 1 * dram.Millisecond})
	c.Advance(5 * dram.Millisecond)
	if epochs != 5 || c.Stats().Epochs != 5 {
		t.Fatalf("epochs = %d / %d", epochs, c.Stats().Epochs)
	}
}

// epochCounter is a minimal Mitigator observing epochs.
type epochCounter struct {
	mitigation.None
	onEpoch func()
}

func (e *epochCounter) OnEpoch(dram.PS) { e.onEpoch() }

func TestRefreshDelaysRequests(t *testing.T) {
	rank, c := newCtrl(t, nil, Config{})
	trefi := rank.Timing().TREFI
	// Submit right at the refresh instant: the access must complete after
	// the tRFC blackout.
	done := c.Submit(testGeom().RowOf(0, 1), false, trefi)
	if done < trefi+rank.Timing().TRFC {
		t.Fatalf("access during refresh blackout: done=%d", done)
	}
}

func TestTimeBackwardsPanics(t *testing.T) {
	_, c := newCtrl(t, nil, Config{})
	c.Advance(1000)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Advance(999)
}

func TestMitigationIntegration(t *testing.T) {
	// End-to-end through the controller: hammering one install row via
	// Submit must trigger AQUA's quarantine and redirect subsequent
	// accesses, transparently to the caller.
	rank := dram.NewRank(testGeom(), dram.DDR4())
	eng := core.New(rank, core.Config{
		TRH: 40, Mode: core.ModeSRAM, RQARows: 8,
		Tracker: tracker.NewExact(testGeom(), 20),
	})
	c := New(rank, eng, Config{})
	geom := testGeom()
	aggr, conflict := geom.RowOf(0, 1), geom.RowOf(0, 50)
	at := dram.PS(0)
	for i := 0; i < 25; i++ {
		at = c.Submit(aggr, false, at)
		at = c.Submit(conflict, false, at)
	}
	if !eng.IsQuarantined(aggr) {
		t.Fatal("controller-driven hammering did not quarantine")
	}
	if eng.Stats().Mitigations == 0 {
		t.Fatal("no mitigation recorded")
	}
	// Requests still complete after quarantine.
	done := c.Submit(aggr, false, at)
	if done <= at {
		t.Fatal("post-quarantine access broken")
	}
}

func TestMaxLatencyTracked(t *testing.T) {
	_, c := newCtrl(t, nil, Config{})
	row := testGeom().RowOf(0, 1)
	c.Submit(row, false, 0)
	st := c.Stats()
	if st.MaxLatency < st.AvgLatency() {
		t.Fatal("max < avg")
	}
}

func TestNilMitigatorIsBaseline(t *testing.T) {
	_, c := newCtrl(t, nil, Config{})
	if c.Mitigator().Name() != "baseline" {
		t.Fatal("nil mitigator not defaulted")
	}
}

func TestEpochLengthDefaultsToTREFW(t *testing.T) {
	rank, c := newCtrl(t, nil, Config{})
	if c.EpochLength() != rank.Timing().TREFW {
		t.Fatal("default epoch length")
	}
}

func TestIdleDrainHookInvoked(t *testing.T) {
	rank := dram.NewRank(testGeom(), dram.DDR4())
	eng := core.New(rank, core.Config{
		TRH: 40, Mode: core.ModeSRAM, RQARows: 8,
		Tracker:        tracker.NewExact(testGeom(), 20),
		ProactiveDrain: true,
	})
	c := New(rank, eng, Config{
		EpochLength:       1 * dram.Millisecond,
		IdleDrainInterval: 100 * dram.Microsecond,
	})
	geom := testGeom()
	// Quarantine a row in epoch 0 via the controller.
	at := dram.PS(0)
	aggr, conflict := geom.RowOf(0, 1), geom.RowOf(0, 50)
	for i := 0; i < 25; i++ {
		at = c.Submit(aggr, false, at)
		at = c.Submit(conflict, false, at)
	}
	if !eng.IsQuarantined(aggr) {
		t.Fatal("setup failed")
	}
	// Advance into the next epoch and beyond: the controller's idle hook
	// must drain the stale entry without any demand traffic.
	c.Advance(3 * dram.Millisecond)
	if eng.Stats().ProactiveDrains == 0 {
		t.Fatal("controller never invoked the drainer")
	}
	if eng.IsQuarantined(aggr) {
		t.Fatal("stale entry not drained")
	}
}
