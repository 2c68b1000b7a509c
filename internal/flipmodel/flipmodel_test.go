package flipmodel

import (
	"testing"

	"repro/internal/dram"
)

func testGeom() dram.Geometry {
	return dram.Geometry{Banks: 2, RowsPerBank: 256, RowBytes: 1024, LineBytes: 64}
}

const ms = dram.Millisecond

func TestNeighborDisturbance(t *testing.T) {
	m := New(testGeom(), 100, 64*ms)
	aggr := testGeom().RowOf(0, 10)
	m.RowOpened(aggr, 0)
	if d := m.Disturbance(testGeom().RowOf(0, 9)); d != 1 {
		t.Fatalf("left neighbor disturbance = %d", d)
	}
	if d := m.Disturbance(testGeom().RowOf(0, 11)); d != 1 {
		t.Fatalf("right neighbor disturbance = %d", d)
	}
	if d := m.Disturbance(testGeom().RowOf(0, 12)); d != 0 {
		t.Fatalf("distance-2 disturbed directly: %d", d)
	}
}

func TestOpeningRestoresOwnCharge(t *testing.T) {
	m := New(testGeom(), 100, 64*ms)
	victim := testGeom().RowOf(0, 10)
	aggr := testGeom().RowOf(0, 11)
	for i := 0; i < 50; i++ {
		m.RowOpened(aggr, dram.PS(i)*1000)
	}
	if m.Disturbance(victim) != 50 {
		t.Fatalf("disturbance = %d", m.Disturbance(victim))
	}
	m.RowOpened(victim, 51_000) // victim refresh / activation
	if m.Disturbance(victim) != 0 {
		t.Fatal("opening did not restore charge")
	}
}

func TestFlipAtThreshold(t *testing.T) {
	m := New(testGeom(), 100, 64*ms)
	aggr := testGeom().RowOf(0, 11)
	for i := 0; i < 100; i++ {
		m.RowOpened(aggr, dram.PS(i)*1000)
	}
	if !m.Flipped() {
		t.Fatal("no flip at threshold")
	}
	flips := m.Flips()
	if len(flips) != 2 { // both neighbours cross together
		t.Fatalf("flips = %v", flips)
	}
	if flips[0].Disturbance < 100 {
		t.Fatalf("flip below threshold: %+v", flips[0])
	}
}

func TestDoubleSidedFlipsTwiceAsFast(t *testing.T) {
	m := New(testGeom(), 100, 64*ms)
	g := testGeom()
	left, right := g.RowOf(0, 9), g.RowOf(0, 11)
	for i := 0; i < 50; i++ {
		m.RowOpened(left, dram.PS(2*i)*1000)
		m.RowOpened(right, dram.PS(2*i+1)*1000)
	}
	victim := g.RowOf(0, 10)
	found := false
	for _, f := range m.Flips() {
		if f.Victim == victim {
			found = true
		}
	}
	if !found {
		t.Fatal("double-sided victim did not flip at T/2 per side")
	}
}

func TestHalfDoubleEmergence(t *testing.T) {
	// Victim refresh of A+/-1 (modelled as opening those rows) disturbs
	// A+/-2: the Half-Double mechanism. 100 mitigating refreshes of A+1
	// flip A+2 even though A+2 is never adjacent to the aggressor A.
	g := testGeom()
	m := New(g, 100, 64*ms)
	aPlus1 := g.RowOf(0, 11)
	for i := 0; i < 100; i++ {
		m.RowOpened(aPlus1, dram.PS(i)*1000) // mitigating refresh
	}
	flipped := false
	for _, f := range m.Flips() {
		if f.Victim == g.RowOf(0, 12) {
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("distance-2 victim not flipped by refreshes")
	}
}

func TestWindowRefreshResets(t *testing.T) {
	m := New(testGeom(), 100, 10*ms)
	aggr := testGeom().RowOf(0, 11)
	for i := 0; i < 60; i++ {
		m.RowOpened(aggr, dram.PS(i)*1000)
	}
	// Next window: counts reset by the periodic refresh.
	m.RowOpened(aggr, 15*ms)
	if d := m.Disturbance(testGeom().RowOf(0, 10)); d != 1 {
		t.Fatalf("disturbance after window roll = %d", d)
	}
	if m.Flipped() {
		t.Fatal("flip across windows")
	}
}

func TestFlipRecordedOncePerRow(t *testing.T) {
	m := New(testGeom(), 10, 64*ms)
	aggr := testGeom().RowOf(0, 11)
	for i := 0; i < 50; i++ {
		m.RowOpened(aggr, dram.PS(i)*1000)
	}
	count := 0
	for _, f := range m.Flips() {
		if f.Victim == testGeom().RowOf(0, 10) {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("victim flipped %d times in the report", count)
	}
}

func TestAttach(t *testing.T) {
	g := testGeom()
	rank := dram.NewRank(g, dram.DDR4())
	m := New(g, 5, 64*ms)
	m.Attach(rank)
	a, b := g.RowOf(0, 10), g.RowOf(0, 30)
	at := dram.PS(0)
	for i := 0; i < 6; i++ {
		done := rank.Access(a, false, at)
		done2 := rank.Access(b, false, done)
		at = done2
	}
	if !m.Flipped() {
		t.Fatal("attached model missed rank activity")
	}
}

// TestAttachObservesRefreshes: a targeted refresh reported to the rank
// disturbs the refreshed row's neighbours like an activation, which is
// how victim refresh's own refreshes reach the model (Half-Double).
func TestAttachObservesRefreshes(t *testing.T) {
	g := testGeom()
	rank := dram.NewRank(g, dram.DDR4())
	m := New(g, 5, 64*ms)
	m.Attach(rank)
	for i := 0; i < 5; i++ {
		rank.NotifyRefresh(g.RowOf(0, 11), dram.PS(i))
	}
	if m.Disturbance(g.RowOf(0, 12)) != 5 || !m.Flipped() {
		t.Fatalf("neighbour disturbance %d, flipped %v", m.Disturbance(g.RowOf(0, 12)), m.Flipped())
	}
}
