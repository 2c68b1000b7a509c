package bloom

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNoFalseNegatives(t *testing.T) {
	// Property: any row that has been Added (and not Removed) must test
	// positive — the filter's one hard guarantee.
	check := func(seed uint64) bool {
		f := New(4096, 16)
		r := rng.New(seed)
		live := make(map[uint32]int)
		for op := 0; op < 500; op++ {
			row := uint32(r.Intn(4096))
			if r.Float64() < 0.6 {
				f.Add(row)
				live[row]++
			} else if live[row] > 0 {
				f.Remove(row)
				live[row]--
			}
		}
		for row, n := range live {
			if n > 0 && !f.MightContain(row) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBitClearsOnLastRemoval(t *testing.T) {
	f := New(1024, 16)
	// Rows 0 and 1 share group 0.
	f.Add(0)
	f.Add(1)
	f.Remove(0)
	if !f.MightContain(1) {
		t.Fatal("bit cleared while group still occupied")
	}
	if !f.MightContain(0) {
		t.Fatal("group sharing: row 0 should still test positive (false positive)")
	}
	f.Remove(1)
	if f.MightContain(0) || f.MightContain(1) {
		t.Fatal("bit not cleared after last removal")
	}
}

func TestGroupMapping(t *testing.T) {
	f := New(1024, 16)
	if f.GroupOf(15) != 0 || f.GroupOf(16) != 1 {
		t.Fatal("group boundaries wrong")
	}
	if f.GroupSize() != 16 {
		t.Fatalf("group size = %d", f.GroupSize())
	}
	if f.Groups() != 64 {
		t.Fatalf("groups = %d", f.Groups())
	}
}

func TestFalsePositiveWithinGroup(t *testing.T) {
	f := New(1024, 16)
	f.Add(32) // group 2
	if !f.MightContain(33) {
		t.Fatal("same-group row must test positive")
	}
	if f.MightContain(48) {
		t.Fatal("different group tested positive")
	}
}

func TestOccupancy(t *testing.T) {
	f := New(1024, 16)
	f.Add(5)
	f.Add(6)
	if occ := f.GroupOccupancy(7); occ != 2 {
		t.Fatalf("occupancy = %d", occ)
	}
	f.Remove(5)
	if occ := f.GroupOccupancy(5); occ != 1 {
		t.Fatalf("occupancy after removal = %d", occ)
	}
}

func TestRemoveWithoutAddPanics(t *testing.T) {
	f := New(1024, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.Remove(3)
}

func TestExpectedPositiveRateAtPaperLoad(t *testing.T) {
	// Section V-D: with 23K quarantined rows over 128K groups, ~16% of
	// groups have at least one quarantined row, so a uniform random
	// access tests positive ~16% of the time.
	f := New(2*1024*1024, 16)
	r := rng.New(42)
	added := make(map[uint32]bool)
	for len(added) < 23053 {
		row := uint32(r.Intn(2 * 1024 * 1024))
		if !added[row] {
			f.Add(row)
			added[row] = true
		}
	}
	hits := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		if f.MightContain(uint32(r.Intn(2 * 1024 * 1024))) {
			hits++
		}
	}
	rate := float64(hits) / probes
	if rate < 0.13 || rate > 0.19 {
		t.Fatalf("positive rate = %.3f, want ~0.16", rate)
	}
}

func TestConstructorPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { New(0, 16) },
		func() { New(100, 0) },
		func() { New(100, 3) },
	} {
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

// TestOutOfRangeRowPanics: every method that takes a row panics on a row
// past the filter's last group, and the panic value's Error names the
// group and the group count. A row in the last, partial group is in
// range.
func TestOutOfRangeRowPanics(t *testing.T) {
	f := New(1000, 16) // 63 groups; rows 1000-1007 share the last
	f.Add(1007)
	for _, m := range []struct {
		name string
		call func(row uint32)
	}{
		{"Add", f.Add},
		{"Remove", f.Remove},
		{"MightContain", func(row uint32) { f.MightContain(row) }},
		{"GroupOccupancy", func(row uint32) { f.GroupOccupancy(row) }},
	} {
		for _, tc := range []struct {
			row  uint32
			want string
		}{
			{1008, "bloom: group 63 out of range (63 groups)"},
			{^uint32(0), "bloom: group 268435455 out of range (63 groups)"},
		} {
			func() {
				defer func() {
					err, ok := recover().(error)
					if !ok || err.Error() != tc.want {
						t.Errorf("%s(%d) panicked with %v, want %q", m.name, tc.row, err, tc.want)
					}
				}()
				m.call(tc.row)
			}()
		}
	}
	if !f.MightContain(1007) || f.GroupOccupancy(1007) != 1 {
		t.Fatal("a row in the last group lost its entry")
	}
}
