package memctrl

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/mitigation"
)

// TestNextEventFollowsAdvance re-expresses the due-order regression
// through NextEvent, the bound the run loop reads: walking the schedule
// one NextEvent + Advance step at a time must surface refresh@7.8us,
// epoch@10us, refresh@15.6us, epoch@20us in exactly that order, with the
// epoch probe observing one refresh at 10us and two at 20us — the
// property the old refreshes-before-epochs switch violated.
func TestNextEventFollowsAdvance(t *testing.T) {
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
		ne := c.NextEvent()
		if ne != w.at {
			t.Fatalf("step %d: NextEvent = %d, want %d", i, ne, w.at)
		}
		// Advancing to just before the due time services nothing.
		before := c.Stats()
		c.Advance(ne - 1)
		if st := c.Stats(); st != before {
			t.Fatalf("step %d: Advance(%d) serviced an event due at %d: %+v", i, ne-1, ne, st)
		}
		// Advancing exactly to the due time services it and moves
		// NextEvent strictly forward.
		c.Advance(ne)
		if st := c.Stats(); st.Refreshes != w.refreshes || st.Epochs != w.epochs {
			t.Fatalf("step %d: after Advance(%d) refreshes=%d epochs=%d, want %d, %d",
				i, ne, st.Refreshes, st.Epochs, w.refreshes, w.epochs)
		}
		if next := c.NextEvent(); next <= ne {
			t.Fatalf("step %d: NextEvent = %d, not past %d", i, next, ne)
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

// TestNextEventEqualTimeCollision pins the tie-break when refresh, epoch,
// and drain all fall due at the same picosecond: NextEvent reports that
// instant once, and Advance services refresh -> epoch -> drain — the
// epoch sees the refresh already counted, the drain sees the epoch
// already rolled over.
func TestNextEventEqualTimeCollision(t *testing.T) {
	trefi := dram.DDR4().TREFI
	rank := dram.NewRank(testGeom(), dram.DDR4())
	probe := &collisionProbe{rank: rank}
	c := New(rank, probe, Config{
		EpochLength:       trefi,
		IdleDrainInterval: trefi,
	})
	if ne := c.NextEvent(); ne != trefi {
		t.Fatalf("NextEvent = %d, want %d", ne, trefi)
	}

	c.Advance(trefi)
	if got := c.Stats().Refreshes; got != 1 {
		t.Fatalf("refreshes = %d, want 1", got)
	}
	if got := c.Stats().Epochs; got != 1 {
		t.Fatalf("epochs = %d, want 1", got)
	}
	if len(probe.refreshesSeen) != 1 || probe.refreshesSeen[0] != 1 {
		t.Fatalf("epoch saw refreshes %v, want [1]: refresh must be serviced first", probe.refreshesSeen)
	}
	if len(probe.epochsSeen) != 1 || probe.epochsSeen[0] != 1 {
		t.Fatalf("drain saw epochs %v, want [1]: epoch must precede drain", probe.epochsSeen)
	}
	// All three sources re-armed one interval forward, together.
	if ne := c.NextEvent(); ne != 2*trefi {
		t.Fatalf("NextEvent after collision = %d, want %d", ne, 2*trefi)
	}
}

// TestNextEventSkipsDisabledSources checks the negative space: with
// refresh disabled and a mitigator that is no Drainer, NextEvent reports
// only the epoch, even though tREFI and the drain interval fall earlier.
func TestNextEventSkipsDisabledSources(t *testing.T) {
	_, c := newCtrl(t, nil, Config{
		DisableRefresh:    true,
		EpochLength:       20 * dram.Microsecond,
		IdleDrainInterval: dram.Microsecond,
	})
	if ne := c.NextEvent(); ne != 20*dram.Microsecond {
		t.Fatalf("NextEvent = %d, want the 20us epoch", ne)
	}
	c.Advance(c.NextEvent())
	if st := c.Stats(); st.Epochs != 1 || st.Refreshes != 0 {
		t.Fatalf("after the epoch: %+v, want 1 epoch and no refresh", st)
	}
	if ne := c.NextEvent(); ne != 40*dram.Microsecond {
		t.Fatalf("NextEvent after the epoch = %d, want 40us", ne)
	}
}
