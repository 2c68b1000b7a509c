package memctrl

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/mitigation"
)

// TestAvgLatencyZeroRequests pins the division guard: a fresh controller
// must report zero average latency, not divide by zero.
func TestAvgLatencyZeroRequests(t *testing.T) {
	_, c := newCtrl(t, nil, Config{})
	if got := c.Stats().AvgLatency(); got != 0 {
		t.Fatalf("AvgLatency with no requests = %d, want 0", got)
	}
	if st := (Stats{}); st.AvgLatency() != 0 {
		t.Fatal("zero-value Stats AvgLatency not 0")
	}
}

// TestLatencyAccounting checks TotalLatency/MaxLatency against latencies
// reconstructed from the returned completion times.
func TestLatencyAccounting(t *testing.T) {
	_, c := newCtrl(t, nil, Config{DisableRefresh: true})
	row1, row2 := testGeom().RowOf(0, 1), testGeom().RowOf(0, 90)
	var total, max dram.PS
	at := dram.PS(0)
	// Alternate conflicting rows in one bank so latencies vary.
	for i := 0; i < 8; i++ {
		row := row1
		if i%2 == 1 {
			row = row2
		}
		done := c.Submit(row, false, at)
		lat := done - at
		total += lat
		if lat > max {
			max = lat
		}
		at += 1 * dram.Nanosecond
	}
	st := c.Stats()
	if st.TotalLatency != total {
		t.Fatalf("TotalLatency = %d, want %d", st.TotalLatency, total)
	}
	if st.MaxLatency != max {
		t.Fatalf("MaxLatency = %d, want %d", st.MaxLatency, max)
	}
	if st.AvgLatency() != total/8 {
		t.Fatalf("AvgLatency = %d, want %d", st.AvgLatency(), total/8)
	}
}

// epochProbe records, at each OnEpoch, how many refreshes the rank had
// already serviced.
type epochProbe struct {
	mitigation.None
	rank      *dram.Rank
	refreshes []int64
	times     []dram.PS
}

func (p *epochProbe) OnEpoch(now dram.PS) {
	p.refreshes = append(p.refreshes, p.rank.Stats().Refreshes)
	p.times = append(p.times, now)
}

// TestAdvanceServicesEventsInDueOrder is the regression test for the
// background-event ordering bug: when one Advance gap spans both a
// refresh and an earlier-due epoch boundary, the epoch must be processed
// first. The old switch always serviced every due refresh before any
// epoch, so an epoch due at 10us observed a refresh that (in time) only
// happened at 15.6us.
func TestAdvanceServicesEventsInDueOrder(t *testing.T) {
	rank := dram.NewRank(testGeom(), dram.DDR4())
	probe := &epochProbe{rank: rank}
	c := New(rank, probe, Config{EpochLength: 10 * dram.Microsecond})
	// One gap covering: refresh@7.8us, epoch@10us, refresh@15.6us, epoch@20us.
	c.Advance(20 * dram.Microsecond)
	if len(probe.refreshes) != 2 {
		t.Fatalf("epochs fired = %d, want 2", len(probe.refreshes))
	}
	if probe.refreshes[0] != 1 {
		t.Fatalf("epoch@10us saw %d refreshes, want 1 (the 7.8us one only)", probe.refreshes[0])
	}
	if probe.refreshes[1] != 2 {
		t.Fatalf("epoch@20us saw %d refreshes, want 2", probe.refreshes[1])
	}
}

// drainProbe is a Drainer recording each OnIdle call alongside the number
// of epochs that had fired by then.
type drainProbe struct {
	mitigation.None
	epochs int
	calls  []dram.PS
	seen   []int // epochs observed at each call
}

func (p *drainProbe) OnEpoch(dram.PS) { p.epochs++ }
func (p *drainProbe) OnIdle(now dram.PS) dram.PS {
	p.calls = append(p.calls, now)
	p.seen = append(p.seen, p.epochs)
	return 0
}

// TestIdleDrainEpochBoundaryOrder covers the idle-drain x epoch
// interaction: drain opportunities due before an epoch boundary must run
// against the old epoch's state, and ones due after must see the new
// epoch. The old switch serviced the epoch before any due drain
// regardless of timestamps.
func TestIdleDrainEpochBoundaryOrder(t *testing.T) {
	rank := dram.NewRank(testGeom(), dram.DDR4())
	probe := &drainProbe{}
	c := New(rank, probe, Config{
		DisableRefresh:    true,
		EpochLength:       10 * dram.Microsecond,
		IdleDrainInterval: 3 * dram.Microsecond,
	})
	// Events in one gap: drains@3,6,9us, epoch@10us, drain@12us.
	c.Advance(12 * dram.Microsecond)
	wantCalls := []dram.PS{3 * dram.Microsecond, 6 * dram.Microsecond, 9 * dram.Microsecond, 12 * dram.Microsecond}
	wantSeen := []int{0, 0, 0, 1}
	if len(probe.calls) != len(wantCalls) {
		t.Fatalf("OnIdle calls = %v, want %v", probe.calls, wantCalls)
	}
	for i := range wantCalls {
		if probe.calls[i] != wantCalls[i] {
			t.Fatalf("OnIdle call %d at %d, want %d", i, probe.calls[i], wantCalls[i])
		}
		if probe.seen[i] != wantSeen[i] {
			t.Fatalf("OnIdle call at %dus saw %d epochs, want %d",
				probe.calls[i]/dram.Microsecond, probe.seen[i], wantSeen[i])
		}
	}
}
