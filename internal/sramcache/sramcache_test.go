package sramcache

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func small() *Cache { return New(64, 4, 16) }

func TestLookupMissThenHit(t *testing.T) {
	c := small()
	if _, hit := c.Lookup(100); hit {
		t.Fatal("empty cache hit")
	}
	c.Insert(100, 7, false)
	v, hit := c.Lookup(100)
	if !hit || v != 7 {
		t.Fatalf("lookup = %d,%v", v, hit)
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	c := small()
	c.Insert(5, 1, false)
	c.Insert(5, 2, true)
	if v, _ := c.Lookup(5); v != 2 {
		t.Fatalf("value = %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(9, 3, false)
	if !c.Invalidate(9) {
		t.Fatal("invalidate failed")
	}
	if c.Contains(9) {
		t.Fatal("still resident")
	}
	if c.Invalidate(9) {
		t.Fatal("double invalidate succeeded")
	}
}

func TestGroupRowsShareSet(t *testing.T) {
	c := small()
	// Rows 0..15 are one group and must map to one set: filling with >4
	// (ways) of them must evict, never split across sets.
	for i := uint32(0); i < 16; i++ {
		c.Insert(i, uint16(i), false)
	}
	if c.Len() != 4 {
		t.Fatalf("group overfilled its set: len = %d, want 4 (ways)", c.Len())
	}
}

func TestRRIPEvictsDistantFirst(t *testing.T) {
	c := New(8, 4, 1) // group size 1: rows map by own hash
	// Find 5 rows in the same set.
	var sameSet []uint32
	base := c.setIndex(0)
	for row := uint32(0); len(sameSet) < 5 && row < 100000; row++ {
		if c.setIndex(row) == base {
			sameSet = append(sameSet, row)
		}
	}
	if len(sameSet) < 5 {
		t.Skip("could not find 5 same-set rows")
	}
	for _, r := range sameSet[:4] {
		c.Insert(r, 1, false)
	}
	// Touch the first three so they are near re-reference; the fourth
	// stays at fill RRPV and must be the victim.
	for _, r := range sameSet[:3] {
		c.Lookup(r)
	}
	c.Insert(sameSet[4], 1, false)
	if c.Contains(sameSet[3]) {
		t.Fatal("RRIP evicted a recently-touched line instead of the distant one")
	}
	for _, r := range sameSet[:3] {
		if !c.Contains(r) {
			t.Fatalf("recently-touched row %d evicted", r)
		}
	}
}

func TestSingletonProbe(t *testing.T) {
	c := small()
	// Row 3 (group 0) resident with singleton bit: probing any other row
	// of group 0 proves "not quarantined".
	c.Insert(3, 9, true)
	if !c.ProbeGroupSingleton(5) {
		t.Fatal("singleton probe missed same-group entry")
	}
	// The row itself must not satisfy its own probe.
	if c.ProbeGroupSingleton(3) {
		t.Fatal("row satisfied its own singleton probe")
	}
	// Without the singleton bit, no proof.
	c.Insert(3, 9, false)
	if c.ProbeGroupSingleton(5) {
		t.Fatal("probe true despite singleton bit clear")
	}
}

func TestSetGroupSingleton(t *testing.T) {
	c := small()
	c.Insert(1, 1, true)
	c.Insert(2, 2, true)
	c.SetGroupSingleton(1, false)
	if c.ProbeGroupSingleton(7) {
		t.Fatal("singleton bits not cleared group-wide")
	}
	c.SetGroupSingleton(2, true)
	if !c.ProbeGroupSingleton(7) {
		t.Fatal("singleton bits not set group-wide")
	}
}

func TestResidencyProperty(t *testing.T) {
	// Property: after any operation sequence, Lookup hits exactly the
	// rows a reference model (bounded per set) still holds, and Len never
	// exceeds capacity.
	check := func(seed uint64) bool {
		c := New(32, 4, 4)
		r := rng.New(seed)
		for op := 0; op < 200; op++ {
			row := uint32(r.Intn(64))
			switch r.Intn(3) {
			case 0:
				c.Insert(row, uint16(row), false)
			case 1:
				c.Invalidate(row)
			case 2:
				if v, hit := c.Lookup(row); hit && v != uint16(row) {
					return false // value corruption
				}
			}
			if c.Len() > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { New(0, 4, 16) },
		func() { New(7, 4, 16) },  // not divisible
		func() { New(48, 4, 16) }, // 12 sets: not a power of two
		func() { New(64, 4, 3) },  // group size not a power of two
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
