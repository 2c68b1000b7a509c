package memctrl

import (
	"testing"

	"repro/internal/blockhammer"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mitigation"
	"repro/internal/rrs"
	"repro/internal/tracker"
	"repro/internal/vrefresh"
)

// recorder wraps a scheme and records each row its OnActivate receives
// and the busy time that call returned. As a rank listener (commit) it
// also builds want, the rank's ACT stream in the order the controller
// must feed it: commit order, except that a request's own ACT goes ahead
// of the ACTs its translation's table walk committed just before it.
type recorder struct {
	mitigation.Mitigator
	rows []dram.Row
	busy []dram.PS

	in    phase
	want  []dram.Row
	own   []bool     // want[i] was committed inside OnActivate or OnIdle
	walks []dram.Row // the current request's table-walk ACTs, not yet in want
}

// phase is the scheme call, if any, running while the rank commits an ACT.
type phase int

const (
	outside phase = iota // a request's own access
	translating
	acting // OnActivate or OnIdle
)

func (r *recorder) commit(row dram.Row, _ dram.PS) {
	switch r.in {
	case translating:
		r.walks = append(r.walks, row)
	case acting:
		r.want = append(r.want, row)
		r.own = append(r.own, true)
	default:
		r.want = append(r.want, row)
		r.own = append(r.own, false)
		r.flushWalks()
	}
}

func (r *recorder) flushWalks() {
	for _, row := range r.walks {
		r.want = append(r.want, row)
		r.own = append(r.own, false)
	}
	r.walks = r.walks[:0]
}

func (r *recorder) Translate(row dram.Row, now dram.PS) mitigation.Translation {
	r.in = translating
	tr := r.Mitigator.Translate(row, now)
	r.in = outside
	return tr
}

func (r *recorder) OnActivate(row dram.Row, at dram.PS) dram.PS {
	r.flushWalks() // a request whose access made no ACT: its walk comes first
	r.rows = append(r.rows, row)
	r.in = acting
	busy := r.Mitigator.OnActivate(row, at)
	r.in = outside
	r.busy = append(r.busy, busy)
	return busy
}

// OnIdle forwards to the scheme's background drain, if it has one.
func (r *recorder) OnIdle(now dram.PS) dram.PS {
	d, ok := r.Mitigator.(mitigation.Drainer)
	if !ok {
		return 0
	}
	r.in = acting
	busy := d.OnIdle(now)
	r.in = outside
	return busy
}

// TestFeedIsTheRankACTStream: the rows a scheme's OnActivate receives are
// exactly the rows the rank activates, as a second rank listener sees
// them, and as many as RankStats.Activates counts. That includes the ACTs
// of the scheme's own migrations, table walks and idle drains. They
// arrive in commit order, but for a request's own ACT, which goes ahead
// of its translation's table walk. The thresholds are small and every request conflicts in its
// bank, so the migrating schemes cascade: an ACT committed inside
// OnActivate or OnIdle triggers a mitigation of its own. (RRS's threshold
// is higher than AQUA's: at a swap threshold of 6, T_RH 36, its cascade in
// this 512-row rank does not end.)
func TestFeedIsTheRankACTStream(t *testing.T) {
	geom := testGeom()
	for _, tc := range []struct {
		name     string
		build    func(*dram.Rank) mitigation.Mitigator
		migrates bool
		drains   bool
	}{
		{"aqua-sram", func(r *dram.Rank) mitigation.Mitigator {
			return core.New(r, core.Config{TRH: 8, Mode: core.ModeSRAM, RQARows: 16,
				Tracker: tracker.NewExact(geom, 4)})
		}, true, false},
		{"aqua-memmapped-drain", func(r *dram.Rank) mitigation.Mitigator {
			return core.New(r, core.Config{TRH: 8, Mode: core.ModeMemMapped, RQARows: 16,
				Tracker: tracker.NewExact(geom, 4), ProactiveDrain: true})
		}, true, true},
		{"rrs", func(r *dram.Rank) mitigation.Mitigator {
			return rrs.New(r, rrs.Config{TRH: 60, Seed: 1, Tracker: tracker.NewExact(geom, 10)})
		}, true, false},
		{"victim-refresh", func(r *dram.Rank) mitigation.Mitigator {
			return vrefresh.New(r, vrefresh.Config{TRH: 8, Tracker: tracker.NewExact(geom, 4)})
		}, false, false},
		// A high T_RH keeps the throttle spacing (tREFW over T_RH/2) at
		// about 2us; the low blacklist threshold still throttles.
		{"blockhammer", func(r *dram.Rank) mitigation.Mitigator {
			return blockhammer.New(r, blockhammer.Config{TRH: 1 << 16, BlacklistThreshold: 4})
		}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rank := dram.NewRank(geom, dram.DDR4())
			rec := &recorder{Mitigator: tc.build(rank)}
			c := New(rank, rec, Config{
				EpochLength:       20 * dram.Microsecond,
				IdleDrainInterval: 2 * dram.Microsecond,
			})
			rank.Listen(rec.commit)

			// Rows 1, 3, 5 and 7 of each bank in turn, so each request
			// opens a row other than the one its bank left open.
			at := dram.PS(0)
			for i := 0; i < 2000; i++ {
				at = c.Submit(geom.RowOf(i%geom.Banks, 1+2*(i/geom.Banks%4)), false, at)
			}
			// Idle time: epochs roll and drains run with no request after
			// them, so only the feed that follows each drain hands its
			// ACTs over.
			drained := rec.Stats().ProactiveDrains
			c.Advance(at + 100*dram.Microsecond)
			if tc.drains && rec.Stats().ProactiveDrains == drained {
				t.Fatal("no drain ran in the idle time")
			}

			rec.flushWalks()
			if len(rec.rows) != len(rec.want) {
				t.Fatalf("OnActivate received %d rows, the rank listener saw %d", len(rec.rows), len(rec.want))
			}
			for i := range rec.want {
				if rec.rows[i] != rec.want[i] {
					t.Fatalf("ACT %d: OnActivate received row %d, want row %d", i, rec.rows[i], rec.want[i])
				}
			}
			if n := rank.Stats().Activates; int64(len(rec.want)) != n {
				t.Fatalf("%d ACTs fed, RankStats.Activates = %d", len(rec.want), n)
			}
			st := rec.Stats()
			if st.Mitigations == 0 {
				t.Fatal("no mitigation: the run tests nothing")
			}
			var owned, cascades int
			for i := range rec.own {
				if rec.own[i] {
					owned++
					if rec.busy[i] > 0 {
						cascades++
					}
				}
			}
			if !tc.migrates {
				if owned != 0 {
					t.Fatalf("%d ACTs committed inside a scheme that makes none", owned)
				}
				return
			}
			if cascades == 0 {
				t.Fatalf("%d own ACTs fed, none triggered a mitigation: no cascade", owned)
			}
			t.Logf("%d ACTs, %d the scheme's own, %d cascading mitigations of %d; %d drains",
				len(rec.want), owned, cascades, st.Mitigations, st.ProactiveDrains)
		})
	}
}
