package tracker

import (
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/rng"
)

func testGeom() dram.Geometry {
	return dram.Geometry{Banks: 2, RowsPerBank: 512, RowBytes: 1024, LineBytes: 64}
}

func TestMisraGriesFlagsAtThresholdMultiples(t *testing.T) {
	g := testGeom()
	tr := NewMisraGries(g, 100, 16)
	row := g.RowOf(0, 7)
	triggers := 0
	for i := 0; i < 350; i++ {
		if tr.RecordACT(row) {
			triggers++
		}
	}
	if triggers != 3 { // at 100, 200, 300
		t.Fatalf("got %d triggers, want 3", triggers)
	}
}

func TestMisraGriesGuarantee(t *testing.T) {
	// The detection guarantee: with a table of N/threshold entries per
	// bank, any row that receives `threshold` activations among N total
	// must trigger at least once. Property-test against random streams.
	g := testGeom()
	check := func(seed uint64) bool {
		const threshold, total = 50, 2000
		tr := NewMisraGries(g, threshold, total/threshold)
		r := rng.New(seed)
		exact := make(map[dram.Row]int)
		flagged := make(map[dram.Row]bool)
		// Concentrate traffic in bank 0 so the guarantee applies per bank.
		hot := g.RowOf(0, 1)
		for i := 0; i < total; i++ {
			var row dram.Row
			if r.Float64() < 0.06 {
				row = hot
			} else {
				row = g.RowOf(0, 2+r.Intn(g.RowsPerBank-2))
			}
			exact[row]++
			if tr.RecordACT(row) {
				flagged[row] = true
			}
		}
		for row, n := range exact {
			if n >= threshold && !flagged[row] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMisraGriesEstimateNeverUnderestimates(t *testing.T) {
	// The MG invariant: estimated count >= true count for tracked rows.
	g := testGeom()
	tr := NewMisraGries(g, 1000, 8)
	r := rng.New(99)
	exact := make(map[dram.Row]int64)
	for i := 0; i < 5000; i++ {
		row := g.RowOf(0, r.Intn(64))
		exact[row]++
		tr.RecordACT(row)
		if est := tr.EstimatedCount(row); est != 0 && est < exact[row] {
			t.Fatalf("estimate %d < true %d for row %d", est, exact[row], row)
		}
	}
}

func TestMisraGriesSpuriousTriggerOnInstall(t *testing.T) {
	// A newly installed row inherits the spill counter; when that lands on
	// a multiple of the threshold, a spurious mitigation fires (the
	// imagick effect from Section IV-F).
	g := testGeom()
	threshold := int64(10)
	tr := NewMisraGries(g, threshold, 2)
	// Fill the 2-entry table.
	a, b := g.RowOf(0, 1), g.RowOf(0, 2)
	tr.RecordACT(a)
	tr.RecordACT(b)
	// Stream unique rows to pump the spill counter; eventually an install
	// lands exactly on a multiple of the threshold and triggers.
	spurious := false
	for i := 3; i < 200; i++ {
		if tr.RecordACT(g.RowOf(0, i%500+3)) {
			spurious = true
			break
		}
	}
	if !spurious {
		t.Fatal("no spurious trigger from spill inheritance")
	}
}

func TestMisraGriesReset(t *testing.T) {
	g := testGeom()
	tr := NewMisraGries(g, 100, 4)
	row := g.RowOf(1, 1)
	for i := 0; i < 99; i++ {
		tr.RecordACT(row)
	}
	tr.Reset()
	if tr.EstimatedCount(row) != 0 {
		t.Fatal("reset kept counts")
	}
	if tr.Spill(1) != 0 {
		t.Fatal("reset kept spill")
	}
	// 100 more ACTs after reset trigger exactly once.
	triggers := 0
	for i := 0; i < 100; i++ {
		if tr.RecordACT(row) {
			triggers++
		}
	}
	if triggers != 1 {
		t.Fatalf("triggers after reset = %d", triggers)
	}
}

func TestMisraGriesPerBankIsolation(t *testing.T) {
	g := testGeom()
	tr := NewMisraGries(g, 100, 1) // one entry per bank
	a := g.RowOf(0, 1)
	b := g.RowOf(1, 1)
	for i := 0; i < 50; i++ {
		tr.RecordACT(a)
		tr.RecordACT(b)
	}
	if tr.EstimatedCount(a) != 50 || tr.EstimatedCount(b) != 50 {
		t.Fatal("banks interfered")
	}
}

func TestProvisionEntries(t *testing.T) {
	tm := dram.DDR4()
	n := ProvisionEntries(tm, 500)
	// ACTmax ~1.36M / 500 ~= 2717.
	if n < 2600 || n > 2800 {
		t.Fatalf("ProvisionEntries(500) = %d", n)
	}
	if ProvisionEntries(tm, tm.ACTMax()*2) != 1 {
		t.Fatal("floor of one entry violated")
	}
}

func TestExactTracker(t *testing.T) {
	g := testGeom()
	tr := NewExact(g, 10)
	row := g.RowOf(0, 0)
	triggers := 0
	for i := 0; i < 35; i++ {
		if tr.RecordACT(row) {
			triggers++
		}
	}
	if triggers != 3 {
		t.Fatalf("exact triggers = %d", triggers)
	}
	if tr.Count(row) != 35 {
		t.Fatalf("count = %d", tr.Count(row))
	}
	tr.Reset()
	if tr.Count(row) != 0 {
		t.Fatal("reset failed")
	}
}

func TestHydraGuarantee(t *testing.T) {
	// No row may reach `threshold` ACTs without having been flagged:
	// groups split at threshold/2 and seed the row's exact counter with
	// the (over-approximate) group count.
	g := testGeom()
	check := func(seed uint64) bool {
		const threshold = 64
		tr := NewHydra(g, threshold, 8)
		r := rng.New(seed)
		exact := make(map[dram.Row]int)
		flagged := make(map[dram.Row]bool)
		for i := 0; i < 4000; i++ {
			row := g.RowOf(r.Intn(g.Banks), r.Intn(32))
			exact[row]++
			if tr.RecordACT(row) {
				flagged[row] = true
			}
			if exact[row] >= threshold && !flagged[row] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHydraSplitsGroups(t *testing.T) {
	g := testGeom()
	tr := NewHydra(g, 100, 4)
	row := g.RowOf(0, 0)
	for i := 0; i < 50; i++ {
		tr.RecordACT(row)
	}
	if tr.DRAMLookups == 0 {
		t.Fatal("group never split despite crossing threshold/2")
	}
}

func TestHydraReset(t *testing.T) {
	g := testGeom()
	tr := NewHydra(g, 100, 4)
	for i := 0; i < 200; i++ {
		tr.RecordACT(g.RowOf(0, 0))
	}
	tr.Reset()
	if tr.DRAMLookups != 0 {
		t.Fatal("reset kept DRAM lookups")
	}
	// After reset the same guarantee applies afresh.
	triggers := 0
	for i := 0; i < 100; i++ {
		if tr.RecordACT(g.RowOf(0, 0)) {
			triggers++
		}
	}
	if triggers == 0 {
		t.Fatal("no trigger after reset")
	}
}

func TestSRAMBytesPositive(t *testing.T) {
	g := testGeom()
	for _, tr := range []Tracker{
		NewMisraGries(g, 100, 16),
		NewExact(g, 100),
		NewHydra(g, 100, 8),
	} {
		if tr.SRAMBytes() <= 0 {
			t.Errorf("%s reports non-positive SRAM", tr.Name())
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	g := testGeom()
	cases := []func(){
		func() { NewMisraGries(g, 0, 4) },
		func() { NewMisraGries(g, 10, 0) },
		func() { NewExact(g, 0) },
		func() { NewHydra(g, 1, 8) },
		func() { NewHydra(g, 100, 3) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestMisraGriesEvictionTieBreakCanonical installs the same set of
// equal-count rows in different orders and verifies the eviction victim
// is the same either way: the heap orders ties by row id, so which entry
// gets swapped out is a function of the table contents, not of insertion
// history.
func TestMisraGriesEvictionTieBreakCanonical(t *testing.T) {
	geom := testGeom()
	rows := []dram.Row{geom.RowOf(0, 40), geom.RowOf(0, 10), geom.RowOf(0, 30), geom.RowOf(0, 20)}
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}

	victim := func(order []int) dram.Row {
		tr := NewMisraGries(geom, 1000, len(rows))
		for _, i := range order {
			tr.RecordACT(rows[i])
		}
		// Table full, all counts equal: the next install swaps out the
		// canonical minimum.
		tr.RecordACT(geom.RowOf(0, 99))
		for _, r := range rows {
			if tr.EstimatedCount(r) == 0 {
				return r
			}
		}
		t.Fatal("no eviction happened")
		return 0
	}

	want := victim(orders[0])
	if want != geom.RowOf(0, 10) {
		t.Errorf("victim = row %d, want the lowest row id %d", want, geom.RowOf(0, 10))
	}
	for _, o := range orders[1:] {
		if got := victim(o); got != want {
			t.Errorf("order %v evicted row %d, order %v evicted row %d", orders[0], want, o, got)
		}
	}
}
