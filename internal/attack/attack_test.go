package attack

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
)

func testGeom() dram.Geometry {
	return dram.Geometry{Banks: 4, RowsPerBank: 256, RowBytes: 1024, LineBytes: 64}
}

// collect drains a stream into a request list.
func collect(s cpu.Stream) []cpu.Request {
	var out []cpu.Request
	for {
		req, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, req)
	}
}

// replayACTs replays a stream against a fresh rank and returns every row's
// activation count, observed through a rank listener.
func replayACTs(geom dram.Geometry, s cpu.Stream) map[dram.Row]uint64 {
	rank := dram.NewRank(geom, dram.DDR4())
	acts := map[dram.Row]uint64{}
	rank.Listen(func(row dram.Row, _ dram.PS) { acts[row]++ })
	at := dram.PS(0)
	for {
		req, ok := s.Next()
		if !ok {
			return acts
		}
		at = rank.Access(req.Row, req.Write, at)
	}
}

func TestSequenceCyclesAndEnds(t *testing.T) {
	rows := []dram.Row{1, 2, 3}
	reqs := collect(NewSequence(rows, 7, 1))
	if len(reqs) != 7 {
		t.Fatalf("len = %d", len(reqs))
	}
	for i, r := range reqs {
		if r.Row != rows[i%3] {
			t.Fatalf("req %d = %d", i, r.Row)
		}
	}
}

func TestConcat(t *testing.T) {
	s := Concat(NewSequence([]dram.Row{1}, 2, 1), NewSequence([]dram.Row{2}, 3, 1))
	reqs := collect(s)
	if len(reqs) != 5 || reqs[0].Row != 1 || reqs[4].Row != 2 {
		t.Fatalf("concat = %v", reqs)
	}
}

func TestSingleSidedActivatesEveryVisit(t *testing.T) {
	g := testGeom()
	aggr := g.RowOf(0, 10)
	acts := replayACTs(g, SingleSided(g, aggr, 200, 100))[aggr]
	if acts != 100 {
		t.Fatalf("aggressor ACTs = %d, want 100", acts)
	}
}

func TestDoubleSidedHitsBothNeighbors(t *testing.T) {
	g := testGeom()
	victim := g.RowOf(1, 50)
	acts := replayACTs(g, DoubleSided(g, victim, 40))
	left, right := g.RowOf(1, 49), g.RowOf(1, 51)
	if acts[left] != 40 || acts[right] != 40 {
		t.Fatalf("ACTs = %d/%d, want 40/40", acts[left], acts[right])
	}
	if acts[victim] != 0 {
		t.Fatal("victim itself activated")
	}
}

func TestDoubleSidedPanicsAtEdge(t *testing.T) {
	g := testGeom()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	DoubleSided(g, g.RowOf(0, 0), 10)
}

func TestManySided(t *testing.T) {
	g := testGeom()
	victim := g.RowOf(0, 100)
	s := ManySided(g, victim, 2, 25)
	reqs := collect(s)
	if len(reqs) != 4*25 {
		t.Fatalf("len = %d", len(reqs))
	}
	seen := make(map[dram.Row]int)
	for _, r := range reqs {
		seen[r.Row]++
	}
	for _, d := range []int{1, 2} {
		for _, n := range g.Neighbors(victim, d) {
			if seen[n] != 25 {
				t.Fatalf("aggressor %d visited %d times", n, seen[n])
			}
		}
	}
}

func TestHalfDoubleTargetsDistanceTwo(t *testing.T) {
	g := testGeom()
	victim := g.RowOf(2, 80)
	reqs := collect(HalfDouble(g, victim, 30))
	far := g.Neighbors(victim, 2)
	for _, r := range reqs {
		if r.Row != far[0] && r.Row != far[1] {
			t.Fatalf("half-double touched %d", r.Row)
		}
	}
}

func TestRotatingDoSCoversAllBanksAndRotates(t *testing.T) {
	g := testGeom()
	const threshold = 10
	rowActs := replayACTs(g, NewRotatingDoS(g, 200, threshold, 2000))
	// Every bank saw activity.
	banksTouched := 0
	maxACT := uint64(0)
	for b := 0; b < g.Banks; b++ {
		touched := false
		for i := 0; i < 200; i++ {
			acts := rowActs[g.RowOf(b, i)]
			if acts > 0 {
				touched = true
			}
			if acts > maxACT {
				maxACT = acts
			}
		}
		if touched {
			banksTouched++
		}
	}
	if banksTouched != g.Banks {
		t.Fatalf("only %d banks attacked", banksTouched)
	}
	// No single target row exceeds the per-target budget (the pattern
	// moves on after `threshold` ACTs; partners can take more).
	if maxACT > 2000/2 {
		t.Fatalf("one row absorbed %d ACTs — pattern did not rotate", maxACT)
	}
}

func TestTableHammerPhases(t *testing.T) {
	g := testGeom()
	setup := []dram.Row{g.RowOf(0, 1), g.RowOf(0, 2)}
	sweep := []dram.Row{g.RowOf(0, 3), g.RowOf(0, 4), g.RowOf(0, 5)}
	s := TableHammer(g, 200, setup, sweep, 5, 4)
	reqs := collect(s)
	// Setup: 2 rows x 2x5 accesses; sweep: 3 rows x 4 rounds.
	want := 2*2*5 + 3*4
	if len(reqs) != want {
		t.Fatalf("len = %d, want %d", len(reqs), want)
	}
	// The sweep visits each row per round.
	tail := reqs[len(reqs)-12:]
	for i, r := range tail {
		if r.Row != sweep[i%3] {
			t.Fatalf("sweep order broken at %d", i)
		}
	}
}

func TestEmptySequencePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSequence(nil, 10, 1)
}

func TestConflictPartnerSameBankDifferentRow(t *testing.T) {
	g := testGeom()
	for _, idx := range []int{0, 1, 100, 255} {
		r := g.RowOf(2, idx)
		p := conflictPartner(g, r, 256)
		if g.BankOf(p) != 2 {
			t.Fatalf("partner in bank %d", g.BankOf(p))
		}
		if p == r {
			t.Fatal("partner equals target")
		}
	}
}

func TestAdaptiveHammerActivatesTargetEveryRound(t *testing.T) {
	g := testGeom()
	target := g.RowOf(2, 33)
	const rounds = 50
	acts := replayACTs(g, AdaptiveHammer(g, target, 200, rounds))[target]
	if acts != rounds {
		t.Fatalf("target ACTs = %d, want %d", acts, rounds)
	}
}

func TestAdaptiveHammerTouchesEveryBank(t *testing.T) {
	g := testGeom()
	target := g.RowOf(0, 10)
	reqs := collect(AdaptiveHammer(g, target, 200, 3))
	banks := make(map[int]bool)
	for _, r := range reqs {
		banks[g.BankOf(r.Row)] = true
	}
	if len(banks) != g.Banks {
		t.Fatalf("touched %d banks, want %d", len(banks), g.Banks)
	}
	// No partner collides with the target.
	for _, r := range reqs[1:] {
		if r.Row == target && g.BankOf(r.Row) != g.BankOf(target) {
			t.Fatal("partner equals target")
		}
	}
}
