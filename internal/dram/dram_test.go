package dram

import (
	"testing"
	"testing/quick"
)

func testGeom() Geometry {
	return Geometry{Banks: 4, RowsPerBank: 256, RowBytes: 1024, LineBytes: 64}
}

func TestDDR4TimingValues(t *testing.T) {
	tm := DDR4()
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if tm.TRC != 45*Nanosecond {
		t.Errorf("tRC = %d", tm.TRC)
	}
	if tm.TREFW != 64*Millisecond {
		t.Errorf("tREFW = %d", tm.TREFW)
	}
}

func TestRowTransferTimeMatchesPaper(t *testing.T) {
	tm := DDR4()
	// Paper Section IV-D: 8KB row = 128 lines, ~685ns per transfer,
	// 1.37us per migration.
	if got := tm.RowTransferTime(128); got != 685*Nanosecond {
		t.Fatalf("RowTransferTime(128) = %dns, want 685ns", got/Nanosecond)
	}
	if got := tm.MigrationTime(128); got != 1370*Nanosecond {
		t.Fatalf("MigrationTime(128) = %dns, want 1370ns", got/Nanosecond)
	}
}

func TestACTMaxMatchesPaper(t *testing.T) {
	// Section II-B: ACTmax = tREFW(1 - tRFC/tREFI)/tRC ~= 1360K.
	got := DDR4().ACTMax()
	if got < 1_350_000 || got > 1_365_000 {
		t.Fatalf("ACTMax = %d, want ~1.36M", got)
	}
}

func TestTimingValidation(t *testing.T) {
	tm := DDR4()
	tm.TRC = 0
	if err := tm.Validate(); err == nil {
		t.Error("zero tRC accepted")
	}
	tm = DDR4()
	tm.TRC = tm.TRCD // < tRCD+tRP
	if err := tm.Validate(); err == nil {
		t.Error("tRC < tRCD+tRP accepted")
	}
	tm = DDR4()
	tm.TREFI = tm.TRFC
	if err := tm.Validate(); err == nil {
		t.Error("tREFI <= tRFC accepted")
	}
}

func TestGeometryValidation(t *testing.T) {
	if err := Baseline().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Geometry{Banks: 0, RowsPerBank: 1, RowBytes: 64, LineBytes: 64}
	if err := bad.Validate(); err == nil {
		t.Error("zero banks accepted")
	}
	bad = Geometry{Banks: 1, RowsPerBank: 1, RowBytes: 100, LineBytes: 64}
	if err := bad.Validate(); err == nil {
		t.Error("non-multiple row bytes accepted")
	}
}

func TestBaselineGeometryMatchesTable1(t *testing.T) {
	g := Baseline()
	if g.Rows() != 2*1024*1024 {
		t.Errorf("rows = %d, want 2M", g.Rows())
	}
	if g.CapacityBytes() != 16*(1<<30) {
		t.Errorf("capacity = %d, want 16GB", g.CapacityBytes())
	}
	if g.LinesPerRow() != 128 {
		t.Errorf("lines/row = %d", g.LinesPerRow())
	}
}

func TestRowMappingRoundTrip(t *testing.T) {
	g := testGeom()
	check := func(bank, idx uint8) bool {
		b := int(bank) % g.Banks
		i := int(idx) % g.RowsPerBank
		r := g.RowOf(b, i)
		return g.BankOf(r) == b && g.IndexOf(r) == i && g.Contains(r)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowOfPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	testGeom().RowOf(0, 256)
}

func TestNeighbors(t *testing.T) {
	g := testGeom()
	mid := g.RowOf(1, 100)
	n := g.Neighbors(mid, 1)
	if len(n) != 2 || n[0] != g.RowOf(1, 99) || n[1] != g.RowOf(1, 101) {
		t.Fatalf("neighbors of (1,100): %v", n)
	}
	edge := g.RowOf(0, 0)
	if n := g.Neighbors(edge, 1); len(n) != 1 || n[0] != g.RowOf(0, 1) {
		t.Fatalf("neighbors of edge: %v", n)
	}
	if n := g.Neighbors(mid, 2); len(n) != 2 || n[0] != g.RowOf(1, 98) {
		t.Fatalf("distance-2 neighbors: %v", n)
	}
}

func TestNeighborPairMatchesNeighbors(t *testing.T) {
	// Exhaustively check the allocation-free form against the slice form,
	// on both a power-of-two and a non-power-of-two geometry (the latter
	// exercises the div/mod fallback in BankOf/IndexOf).
	geoms := []Geometry{
		testGeom(),
		{Banks: 3, RowsPerBank: 100, RowBytes: 1024, LineBytes: 64},
	}
	for _, g := range geoms {
		for _, d := range []int{1, 2, 3} {
			for r := Row(0); r < Row(g.Rows()); r++ {
				want := g.Neighbors(r, d)
				pair, n := g.NeighborPair(r, d)
				if n != len(want) {
					t.Fatalf("geom %+v row %d dist %d: count %d, want %d", g, r, d, n, len(want))
				}
				for i := 0; i < n; i++ {
					if pair[i] != want[i] {
						t.Fatalf("geom %+v row %d dist %d: pair %v, want %v", g, r, d, pair[:n], want)
					}
				}
			}
		}
	}
}

func TestNeighborPairZeroAlloc(t *testing.T) {
	g := testGeom()
	row := g.RowOf(1, 100)
	if avg := testing.AllocsPerRun(1000, func() {
		pair, n := g.NeighborPair(row, 1)
		if n != 2 || pair[0] != g.RowOf(1, 99) {
			t.Fatal("wrong neighbors")
		}
	}); avg != 0 {
		t.Fatalf("NeighborPair allocates %.2f allocs/op, want 0", avg)
	}
}

func TestAccessRowMissThenHit(t *testing.T) {
	r := NewRank(testGeom(), DDR4())
	acts := countACTs(r)
	row := r.Geometry().RowOf(0, 10)
	done1 := r.Access(row, false, 0)
	if acts[row] != 1 {
		t.Fatal("first access did not activate")
	}
	// Miss latency: tRCD + tCL + tBL.
	tm := r.Timing()
	if want := tm.TRCD + tm.TCL + tm.TBL; done1 != want {
		t.Fatalf("miss latency = %d, want %d", done1, want)
	}
	done2 := r.Access(row, false, done1)
	if acts[row] != 1 {
		t.Fatal("row hit activated")
	}
	if done2 <= done1 {
		t.Fatal("hit completed before issue")
	}
}

// countACTs counts the rank's activations per row through a listener.
func countACTs(r *Rank) map[Row]int {
	acts := map[Row]int{}
	r.Listen(func(row Row, _ PS) { acts[row]++ })
	return acts
}

func TestAccessConflictActivates(t *testing.T) {
	r := NewRank(testGeom(), DDR4())
	acts := countACTs(r)
	g := r.Geometry()
	a, b := g.RowOf(0, 1), g.RowOf(0, 2)
	r.Access(a, false, 0)
	r.Access(b, false, 1000)
	if acts[a] != 1 || acts[b] != 1 {
		t.Fatalf("act counts: %d, %d", acts[a], acts[b])
	}
	st := r.Stats()
	if st.RowHits != 0 || st.RowMisses != 2 {
		t.Fatalf("hits=%d misses=%d", st.RowHits, st.RowMisses)
	}
}

func TestActToActSpacingEnforced(t *testing.T) {
	r := NewRank(testGeom(), DDR4())
	g := r.Geometry()
	a, b := g.RowOf(0, 1), g.RowOf(0, 2)
	r.Access(a, false, 0)
	done := r.Access(b, false, 0)
	// The second ACT cannot start before tRC after the first, so data
	// cannot complete before tRC + tRCD + tCL.
	tm := r.Timing()
	if done < tm.TRC {
		t.Fatalf("second conflicting access done at %d < tRC %d", done, tm.TRC)
	}
}

func TestDifferentBanksOverlap(t *testing.T) {
	r := NewRank(testGeom(), DDR4())
	g := r.Geometry()
	d1 := r.Access(g.RowOf(0, 1), false, 0)
	d2 := r.Access(g.RowOf(1, 1), false, 0)
	// Bank-parallel accesses serialize only on the data bus (tBL), not
	// the full row cycle.
	if d2-d1 > r.Timing().TBL {
		t.Fatalf("bank-parallel access serialized: %d then %d", d1, d2)
	}
}

func TestListenerSeesActivations(t *testing.T) {
	r := NewRank(testGeom(), DDR4())
	var got []Row
	r.Listen(func(row Row, _ PS) { got = append(got, row) })
	a := r.Geometry().RowOf(2, 5)
	r.Access(a, false, 0)
	r.Access(a, false, 100000) // hit: no ACT
	if len(got) != 1 || got[0] != a {
		t.Fatalf("listener saw %v", got)
	}
}

// TestRefreshListenersSeeOnlyRefreshes: NotifyRefresh reaches the refresh
// listeners and nothing else — no activation listener call, no RankStats
// change, no bank timing.
func TestRefreshListenersSeeOnlyRefreshes(t *testing.T) {
	r := NewRank(testGeom(), DDR4())
	var acts, refreshes []Row
	r.Listen(func(row Row, _ PS) { acts = append(acts, row) })
	r.ListenRefresh(func(row Row, _ PS) { refreshes = append(refreshes, row) })
	a := r.Geometry().RowOf(1, 7)
	r.NotifyRefresh(a, 5000)
	if len(refreshes) != 1 || refreshes[0] != a || len(acts) != 0 {
		t.Fatalf("refresh listener saw %v, activation listener saw %v", refreshes, acts)
	}
	if r.Stats() != (RankStats{}) {
		t.Fatalf("a notification changed the rank stats: %+v", r.Stats())
	}
	// No bank timing either: the notified row's bank still serves a cold
	// access at time 0 in exactly ACT -> column -> data -> burst end.
	tm := DDR4()
	if done := r.Access(a, false, 0); done != tm.TRCD+tm.TCL+tm.TBL {
		t.Fatalf("access after a notification completed at %d, want the cold-bank %d", done, tm.TRCD+tm.TCL+tm.TBL)
	}
	if len(refreshes) != 1 || len(acts) != 1 {
		t.Fatalf("after an ACT: refresh listener saw %v, activation listener saw %v", refreshes, acts)
	}
}

func TestStreamRowTiming(t *testing.T) {
	r := NewRank(testGeom(), DDR4())
	acts := countACTs(r)
	row := r.Geometry().RowOf(0, 3)
	done := r.StreamRow(row, false, 0)
	want := r.Timing().RowTransferTime(r.Geometry().LinesPerRow())
	if done != want {
		t.Fatalf("stream done at %d, want %d", done, want)
	}
	if acts[row] != 1 {
		t.Fatal("stream did not activate the row")
	}
	if r.Stats().RowStreams != 1 {
		t.Fatal("stream not counted")
	}
}

func TestStreamBlocksBus(t *testing.T) {
	r := NewRank(testGeom(), DDR4())
	g := r.Geometry()
	end := r.StreamRow(g.RowOf(0, 3), false, 0)
	// An access to another bank issued during the stream must wait for
	// the bus.
	done := r.Access(g.RowOf(1, 1), false, 0)
	if done < end {
		t.Fatalf("access completed during stream: %d < %d", done, end)
	}
}

// TestRefreshBlocksAndCloses drives a refresh over three kinds of bank:
// bank 0 has an open row, bank 1 was never used, and bank 2 is busy until
// past the refresh end (its last ACT came late, so tRC holds its next
// one). The refresh must close every row, hold the idle bank's first ACT
// until the refresh ends, and leave the busy bank's later wait in place.
func TestRefreshBlocksAndCloses(t *testing.T) {
	r := NewRank(testGeom(), DDR4())
	g := r.Geometry()
	var acts []PS
	r.Listen(func(_ Row, at PS) { acts = append(acts, at) })
	lastACT := func() PS { return acts[len(acts)-1] }

	r.Access(g.RowOf(0, 1), false, 0)
	r.Access(g.RowOf(2, 3), false, 10*Microsecond)
	busy := lastACT() + r.Timing().TRC
	at := PS(100 * Nanosecond)
	end := r.RefreshAll(at)
	if end != at+r.Timing().TRFC {
		t.Fatalf("refresh end = %d", end)
	}
	if busy <= end {
		t.Fatalf("bank 2 is ready at %d, not past the refresh end %d", busy, end)
	}
	for b := 0; b < g.Banks; b++ {
		if row, open := r.OpenRow(b); open {
			t.Fatalf("refresh left row %d open in bank %d", row, b)
		}
	}
	// access reports whether the access to row activated it, by the
	// listener's count.
	access := func(row Row) bool {
		n := len(acts)
		r.Access(row, false, at)
		return len(acts) == n+1
	}
	if act := access(g.RowOf(0, 1)); !act || lastACT() < end {
		t.Fatalf("open bank: activated %v at %d, refresh ends %d", act, lastACT(), end)
	}
	if act := access(g.RowOf(1, 2)); !act || lastACT() < end {
		t.Fatalf("idle bank: activated %v at %d, refresh ends %d", act, lastACT(), end)
	}
	if act := access(g.RowOf(2, 4)); !act || lastACT() < busy {
		t.Fatalf("busy bank: activated %v at %d, want at or after %d", act, lastACT(), busy)
	}
	if r.Stats().Refreshes != 1 {
		t.Fatal("refresh not counted")
	}
}

func TestReserveBlocksAllBanks(t *testing.T) {
	r := NewRank(testGeom(), DDR4())
	g := r.Geometry()
	until := PS(5 * Microsecond)
	r.Reserve(until)
	for b := 0; b < g.Banks; b++ {
		done := r.Access(g.RowOf(b, 1), false, 0)
		if done < until {
			t.Fatalf("bank %d access completed at %d during reservation", b, done)
		}
	}
}

func TestAccessPanicsOutsideGeometry(t *testing.T) {
	r := NewRank(testGeom(), DDR4())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	r.Access(Row(testGeom().Rows()), false, 0)
}

func TestWriteDelaysPrecharge(t *testing.T) {
	r := NewRank(testGeom(), DDR4())
	g := r.Geometry()
	a, b := g.RowOf(0, 1), g.RowOf(0, 2)
	dw := r.Access(a, true, 0)
	// Opening another row must wait for write recovery.
	done := r.Access(b, false, dw)
	tm := r.Timing()
	if done < dw+tm.TWR {
		t.Fatalf("conflict after write ignored tWR: %d < %d", done, dw+tm.TWR)
	}
}

func TestInvalidRowSentinel(t *testing.T) {
	if testGeom().Contains(InvalidRow) {
		t.Fatal("InvalidRow must not be contained in any geometry")
	}
}

func TestFourActivateWindow(t *testing.T) {
	// Five back-to-back activations to five different banks: the fifth
	// must wait for tFAW after the first, even though each bank is ready.
	g := Geometry{Banks: 8, RowsPerBank: 64, RowBytes: 1024, LineBytes: 64}
	tm := DDR4()
	tm.TFAW = 200 * Nanosecond // exaggerate so the constraint dominates
	r := NewRank(g, tm)
	var actTimes []PS
	r.Listen(func(_ Row, at PS) { actTimes = append(actTimes, at) })
	for b := 0; b < 5; b++ {
		r.Access(g.RowOf(b, 1), false, 0)
	}
	if len(actTimes) != 5 {
		t.Fatalf("acts = %d", len(actTimes))
	}
	if actTimes[4]-actTimes[0] < tm.TFAW {
		t.Fatalf("fifth ACT at %d, first at %d: tFAW %d violated",
			actTimes[4], actTimes[0], tm.TFAW)
	}
	// The first four were not delayed by the window.
	if actTimes[3]-actTimes[0] >= tm.TFAW {
		t.Fatal("fourth ACT needlessly delayed")
	}
}
