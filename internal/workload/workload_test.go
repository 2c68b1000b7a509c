package workload

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/rng"
)

func testRegion() Region {
	return Region{
		Geom:               dram.Geometry{Banks: 4, RowsPerBank: 1024, RowBytes: 1024, LineBytes: 64},
		VisibleRowsPerBank: 1000,
	}
}

func TestSpecTableIntegrity(t *testing.T) {
	specs := SPEC17()
	if len(specs) != 18 {
		t.Fatalf("%d SPEC workloads, want 18", len(specs))
	}
	seen := make(map[string]bool)
	for _, s := range specs {
		if seen[s.Name] {
			t.Errorf("duplicate workload %s", s.Name)
		}
		seen[s.Name] = true
		if s.MPKI <= 0 {
			t.Errorf("%s: MPKI %g", s.Name, s.MPKI)
		}
		// Tiers are cumulative: 166+ includes 500+ includes 1K+.
		if s.Rows500 > s.Rows166 || s.Rows1K > s.Rows500 {
			t.Errorf("%s: non-cumulative tiers %d/%d/%d", s.Name, s.Rows166, s.Rows500, s.Rows1K)
		}
	}
	// Spot-check Table II anchor rows.
	if lbm, _ := ByName("lbm"); lbm.MPKI != 20.9 || lbm.Rows500 != 5437 {
		t.Errorf("lbm spec drifted: %+v", lbm)
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName found a ghost")
	}
}

func TestMixesDeterministicAndComplete(t *testing.T) {
	a, b := Mixes(), Mixes()
	if len(a) != 16 {
		t.Fatalf("%d mixes, want 16", len(a))
	}
	for i := range a {
		if MixName(i, a[i]) != MixName(i, b[i]) {
			t.Fatal("mixes not deterministic")
		}
		for c := 0; c < 4; c++ {
			if a[i][c].MPKI <= 0 {
				t.Fatalf("mix %d core %d empty", i, c)
			}
		}
	}
}

func TestRegionMapping(t *testing.T) {
	r := testRegion()
	if r.VisibleRows() != 4000 {
		t.Fatalf("visible rows = %d", r.VisibleRows())
	}
	rows := r.rowIndex()
	seen := make(map[dram.Row]bool)
	for i := 0; i < r.VisibleRows(); i++ {
		row := rows.rowAt(uint64(i))
		if seen[row] {
			t.Fatalf("rowAt not injective at %d", i)
		}
		seen[row] = true
		if idx := r.Geom.IndexOf(row); idx >= r.VisibleRowsPerBank {
			t.Fatalf("row %d outside visible strip (idx %d)", row, idx)
		}
	}
}

// TestRowAtMatchesFormula pins the divide-free rowAt to the plain formula
// bank = i/n, index = i mod n over the whole visible range of
// power-of-two and other geometries, the baseline's 2M rows and a bank
// of one visible row (where ceil(2^64/n) needs 65 bits) included.
func TestRowAtMatchesFormula(t *testing.T) {
	regions := []Region{
		{Geom: dram.Baseline()},
		{Geom: dram.Baseline(), VisibleRowsPerBank: 128*1024 - 2911},
		{Geom: dram.Geometry{Banks: 3, RowsPerBank: 1000, RowBytes: 1024, LineBytes: 64}, VisibleRowsPerBank: 999},
		{Geom: dram.Geometry{Banks: 5, RowsPerBank: 96, RowBytes: 1024, LineBytes: 64}},
		{Geom: dram.Geometry{Banks: 1, RowsPerBank: 7, RowBytes: 1024, LineBytes: 64}},
		{Geom: dram.Geometry{Banks: 6, RowsPerBank: 4, RowBytes: 1024, LineBytes: 64}, VisibleRowsPerBank: 1},
	}
	for _, r := range regions {
		n := r.rows()
		rows := r.rowIndex()
		for i := 0; i < r.VisibleRows(); i++ {
			if got, want := rows.rowAt(uint64(i)), r.Geom.RowOf(i/n, i%n); got != want {
				t.Fatalf("%+v: rowAt(%d) = %d, formula gives %d", r, i, got, want)
			}
		}
	}
	// The reciprocal's quotient is exact for every index and divisor a
	// dram.Row can hold, not only the geometries above.
	r := rng.New(0x524f5741)
	edges := []uint64{1, 2, 3, 7, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<32 - 2, 1<<32 - 1}
	for k := 0; k < 200000; k++ {
		n, i := 1+r.Uint64n(1<<32-1), r.Uint64n(1<<32)
		if k < len(edges)*len(edges) {
			n, i = edges[k/len(edges)], edges[k%len(edges)]
		}
		x := Region{Geom: dram.Geometry{Banks: 1, RowsPerBank: int(n)}}.rowIndex()
		if got := x.quotient(i); got != i/n {
			t.Fatalf("quotient(%d) with n = %d is %d, want %d", i, n, got, i/n)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	spec, _ := ByName("gcc")
	gen1 := NewGenerator(spec, testRegion(), 0, 42, Params{})
	gen2 := NewGenerator(spec, testRegion(), 0, 42, Params{})
	s1, s2 := gen1.Stream(500, 7), gen2.Stream(500, 7)
	for i := 0; i < 500; i++ {
		r1, ok1 := s1.Next()
		r2, ok2 := s2.Next()
		if ok1 != ok2 || r1 != r2 {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, r1, r2)
		}
	}
}

func TestStreamEndsAfterN(t *testing.T) {
	spec, _ := ByName("xz")
	gen := NewGenerator(spec, testRegion(), 0, 1, Params{})
	s := gen.Stream(10, 1)
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Fatalf("stream yielded %d", n)
	}
}

func TestStreamStaysInRegion(t *testing.T) {
	check := func(seed uint64) bool {
		spec, _ := ByName("mcf")
		region := testRegion()
		gen := NewGenerator(spec, region, int(seed%4), seed, Params{})
		s := gen.Stream(300, seed)
		for {
			req, ok := s.Next()
			if !ok {
				return true
			}
			if !region.Geom.Contains(req.Row) {
				return false
			}
			if region.Geom.IndexOf(req.Row) >= region.VisibleRowsPerBank {
				return false
			}
			if req.GapInstr < 1 {
				return false
			}
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGapMatchesMPKI(t *testing.T) {
	spec, _ := ByName("gcc") // MPKI 6.32 -> mean gap ~158
	gen := NewGenerator(spec, testRegion(), 0, 3, Params{})
	s := gen.Stream(5000, 3)
	var total int64
	n := 0
	for {
		req, ok := s.Next()
		if !ok {
			break
		}
		total += req.GapInstr
		n++
	}
	mean := float64(total) / float64(n)
	want := 1000 / spec.MPKI
	if mean < want*0.8 || mean > want*1.2 {
		t.Fatalf("mean gap = %.1f, want ~%.1f", mean, want)
	}
}

func TestHotRowsShareOfTraffic(t *testing.T) {
	// A hot-heavy workload must send a substantial share of its requests
	// to the declared hot set, and zero-hot workloads none.
	spec, _ := ByName("lbm")
	region := testRegion()
	gen := NewGenerator(spec, region, 0, 5, Params{})
	if gen.HotRows() == 0 {
		t.Fatal("lbm has no hot rows")
	}
	if gen.PHot() <= 0 {
		t.Fatal("lbm pHot = 0")
	}
	cold, _ := ByName("wrf")
	genCold := NewGenerator(cold, region, 0, 5, Params{})
	if genCold.HotRows() != 0 || genCold.PHot() != 0 {
		t.Fatalf("wrf hot = %d pHot = %g", genCold.HotRows(), genCold.PHot())
	}
}

func TestBurstLocality(t *testing.T) {
	// Background accesses come in same-row runs (mean BackgroundBurst):
	// the stream must contain markedly fewer distinct-row transitions
	// than a burst-free one.
	spec, _ := ByName("xz")
	region := testRegion()
	transitions := func(burst int) int {
		gen := NewGenerator(spec, region, 0, 9, Params{BackgroundBurst: burst})
		s := gen.Stream(4000, 9)
		var prev dram.Row
		n := 0
		first := true
		for {
			req, ok := s.Next()
			if !ok {
				return n
			}
			if first || req.Row != prev {
				n++
			}
			prev, first = req.Row, false
		}
	}
	if b4, b1 := transitions(4), transitions(1); b4 >= b1*8/10 {
		t.Fatalf("bursting did not reduce row transitions: %d vs %d", b4, b1)
	}
}

func TestWriteFraction(t *testing.T) {
	spec, _ := ByName("mcf")
	gen := NewGenerator(spec, testRegion(), 0, 11, Params{WriteFraction: 0.5})
	s := gen.Stream(4000, 11)
	writes := 0
	for {
		req, ok := s.Next()
		if !ok {
			break
		}
		if req.Write {
			writes++
		}
	}
	if writes < 1600 || writes > 2400 {
		t.Fatalf("writes = %d of 4000, want ~2000", writes)
	}
}

func TestCoreCopiesGetDistinctHotRows(t *testing.T) {
	spec, _ := ByName("gcc")
	region := testRegion()
	g0 := NewGenerator(spec, region, 0, 42, Params{})
	g1 := NewGenerator(spec, region, 1, 42, Params{})
	same := 0
	for i := range g0.hot {
		if i < len(g1.hot) && g0.hot[i] == g1.hot[i] {
			same++
		}
	}
	if len(g0.hot) > 10 && same == len(g0.hot) {
		t.Fatal("rate copies share hot rows")
	}
}

func TestZeroMPKIPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewGenerator(Spec{Name: "bad"}, testRegion(), 0, 1, Params{})
}

// TestPickIndexMatchesSearchFloat64s pins the bucket-indexed inverse-CDF
// draw against its reference semantics: for any x in [0, total], pickIndex
// must return exactly sort.SearchFloat64s(cum, x) — the smallest i with
// cum[i] >= x. The draw feeds hot-row selection, so a one-off here shifts
// golden figure bytes. It covers every table shape the generator builds:
// each spec with hot rows (lbm, blender, gcc, mcf, cactuBSSN, roms, xz),
// at the paper's 4 cores and at one core, which gives lbm all 6,794 hot
// rows and a pick table 4x larger.
func TestPickIndexMatchesSearchFloat64s(t *testing.T) {
	for _, spec := range SPEC17() {
		if spec.Rows166 == 0 {
			continue
		}
		for _, cores := range []int{4, 1} {
			name := fmt.Sprintf("%s/%d-core", spec.Name, cores)
			g := NewGenerator(spec, testRegion(), 0, 7, Params{Cores: cores})
			if len(g.cum) == 0 {
				t.Fatalf("%s: no hot rows", name)
			}
			total := g.cum[len(g.cum)-1]
			check := func(x float64) {
				got := g.pickIndex(x)
				want := sort.SearchFloat64s(g.cum, x)
				if got != want {
					t.Fatalf("%s: pickIndex(%v) = %d, want %d", name, x, got, want)
				}
			}
			// Boundary probes: exact cumulative values and their neighbours
			// are where an off-by-one in the bucket scan would land.
			for _, c := range g.cum {
				check(c)
				check(math.Nextafter(c, 0))
				check(math.Nextafter(c, total))
			}
			check(0)
			check(total)
			r := rng.New(0xA11CE)
			for i := 0; i < 100000; i++ {
				check(r.Float64() * total)
			}
		}
	}
}
