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
	_, c := newCtrl(t, nil, Config{})
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
		EpochLength:       10 * dram.Microsecond,
		IdleDrainInterval: 3 * dram.Microsecond,
	})
	// Events in one gap: drains@3,6us, refresh@7.8us, drain@9us,
	// epoch@10us, drain@12us.
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

// TestAdvanceStepsThroughSchedule walks the due-order regression one
// event at a time: advancing to just before each of refresh@7.8us,
// epoch@10us, refresh@15.6us and epoch@20us services nothing, and
// advancing exactly to it services it, with the epoch probe observing
// one refresh at 10us and two at 20us — the property the old
// refreshes-before-epochs switch violated.
func TestAdvanceStepsThroughSchedule(t *testing.T) {
	rank := dram.NewRank(testGeom(), dram.DDR4())
	probe := &epochProbe{rank: rank}
	c := New(rank, probe, Config{EpochLength: 10 * dram.Microsecond})

	trefi := dram.DDR4().TREFI
	want := []struct {
		at                dram.PS
		refreshes, epochs int64
	}{
		{trefi, 1, 0},
		{10 * dram.Microsecond, 1, 1},
		{2 * trefi, 2, 1},
		{20 * dram.Microsecond, 2, 2},
	}
	for i, w := range want {
		before := c.Stats()
		c.Advance(w.at - 1)
		if st := c.Stats(); st != before {
			t.Fatalf("step %d: Advance(%d) serviced an event due at %d: %+v", i, w.at-1, w.at, st)
		}
		c.Advance(w.at)
		if st := c.Stats(); st.Refreshes != w.refreshes || st.Epochs != w.epochs {
			t.Fatalf("step %d: after Advance(%d) refreshes=%d epochs=%d, want %d, %d",
				i, w.at, st.Refreshes, st.Epochs, w.refreshes, w.epochs)
		}
	}
	if len(probe.refreshes) != 2 || probe.refreshes[0] != 1 || probe.refreshes[1] != 2 {
		t.Fatalf("epoch probe saw refreshes %v, want [1 2]", probe.refreshes)
	}
}

// collisionProbe is both an epoch observer and a Drainer, recording the
// rank refresh count at each epoch and the epoch count at each drain.
type collisionProbe struct {
	mitigation.None
	rank          *dram.Rank
	refreshesSeen []int64 // at each OnEpoch
	epochsSeen    []int   // at each OnIdle
	epochs        int
}

func (p *collisionProbe) OnEpoch(dram.PS) {
	p.refreshesSeen = append(p.refreshesSeen, p.rank.Stats().Refreshes)
	p.epochs++
}

func (p *collisionProbe) OnIdle(now dram.PS) dram.PS {
	p.epochsSeen = append(p.epochsSeen, p.epochs)
	return 0
}

// TestAdvanceEqualTimeCollision pins the tie-break when refresh, epoch,
// and drain all fall due at the same picosecond: Advance services
// refresh -> epoch -> drain — the epoch sees the refresh already counted,
// the drain sees the epoch already rolled over — and re-arms all three
// one interval forward, together.
func TestAdvanceEqualTimeCollision(t *testing.T) {
	trefi := dram.DDR4().TREFI
	rank := dram.NewRank(testGeom(), dram.DDR4())
	probe := &collisionProbe{rank: rank}
	c := New(rank, probe, Config{
		EpochLength:       trefi,
		IdleDrainInterval: trefi,
	})
	c.Advance(trefi - 1)
	if st := c.Stats(); st.Refreshes != 0 || st.Epochs != 0 || len(probe.epochsSeen) != 0 {
		t.Fatalf("Advance(%d) serviced an event due at %d: %+v, %d drains", trefi-1, trefi, st, len(probe.epochsSeen))
	}
	for i := 1; i <= 2; i++ {
		c.Advance(dram.PS(i) * trefi)
		if st := c.Stats(); st.Refreshes != int64(i) || st.Epochs != int64(i) {
			t.Fatalf("at %d*tREFI: refreshes=%d epochs=%d, want %d each", i, st.Refreshes, st.Epochs, i)
		}
		if len(probe.refreshesSeen) != i || probe.refreshesSeen[i-1] != int64(i) {
			t.Fatalf("epochs saw refreshes %v: refresh must be serviced first", probe.refreshesSeen)
		}
		if len(probe.epochsSeen) != i || probe.epochsSeen[i-1] != i {
			t.Fatalf("drains saw epochs %v: epoch must precede drain", probe.epochsSeen)
		}
		c.Advance(dram.PS(i+1)*trefi - 1)
		if st := c.Stats(); st.Refreshes != int64(i) || len(probe.epochsSeen) != i {
			t.Fatalf("an event due at %d*tREFI ran early: %+v, %d drains", i+1, st, len(probe.epochsSeen))
		}
	}
}

// TestAdvanceSkipsDisabledSources checks the negative space: a
// mitigator that is no Drainer gets no idle drain, so the drain interval,
// though it falls before every refresh and epoch, is never an event, and
// bgNext, the one comparison Advance makes when nothing is due, holds the
// next refresh or epoch instead.
func TestAdvanceSkipsDisabledSources(t *testing.T) {
	rank, c := newCtrl(t, nil, Config{
		EpochLength:       20 * dram.Microsecond,
		IdleDrainInterval: dram.Microsecond,
	})
	if c.drainer != nil {
		t.Fatal("the baseline, which has no OnIdle, was taken for a Drainer")
	}
	trefi := rank.Timing().TREFI // 7.8us
	if c.bgNext != trefi {
		t.Fatalf("bgNext = %d, want the first refresh at %d", c.bgNext, trefi)
	}
	for _, step := range []struct {
		at                dram.PS
		refreshes, epochs int64
		bgNext            dram.PS
	}{
		{trefi - 1, 0, 0, trefi},
		{trefi, 1, 0, 2 * trefi},
		{20*dram.Microsecond - 1, 2, 0, 20 * dram.Microsecond},
		{20 * dram.Microsecond, 2, 1, 3 * trefi},
		{40 * dram.Microsecond, 5, 2, 6 * trefi},
	} {
		c.Advance(step.at)
		if st := c.Stats(); st.Epochs != step.epochs || st.Refreshes != step.refreshes || c.bgNext != step.bgNext {
			t.Fatalf("after Advance(%d): %+v, bgNext %d; want %d refreshes, %d epochs, bgNext %d",
				step.at, st, c.bgNext, step.refreshes, step.epochs, step.bgNext)
		}
	}
}
