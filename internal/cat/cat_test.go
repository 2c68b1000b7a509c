package cat

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/rng"
)

func smallCfg() Config {
	return Config{Sets: 64, Ways: 4, Seed: 7, MaxRelocations: 8}
}

func TestInsertLookupDelete(t *testing.T) {
	tab := New(smallCfg())
	if err := tab.Insert(dram.Row(10), 42); err != nil {
		t.Fatal(err)
	}
	if v, ok := tab.Lookup(dram.Row(10)); !ok || v != 42 {
		t.Fatalf("lookup = %d,%v", v, ok)
	}
	if tab.Len() != 1 {
		t.Fatalf("len = %d", tab.Len())
	}
	if !tab.Delete(dram.Row(10)) {
		t.Fatal("delete failed")
	}
	if tab.Contains(dram.Row(10)) {
		t.Fatal("still present after delete")
	}
	if tab.Delete(dram.Row(10)) {
		t.Fatal("double delete succeeded")
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	tab := New(smallCfg())
	tab.Insert(dram.Row(5), 1)
	tab.Insert(dram.Row(5), 2)
	if v, _ := tab.Lookup(dram.Row(5)); v != 2 {
		t.Fatalf("value = %d", v)
	}
	if tab.Len() != 1 {
		t.Fatalf("len = %d after update", tab.Len())
	}
}

func TestMapSemanticsProperty(t *testing.T) {
	// The CAT must behave exactly like a map for any operation sequence
	// that stays within a modest load factor.
	check := func(seed uint64) bool {
		tab := New(smallCfg())
		ref := make(map[dram.Row]uint32)
		r := rng.New(seed)
		for op := 0; op < 300; op++ {
			key := dram.Row(r.Intn(200))
			switch r.Intn(3) {
			case 0:
				if len(ref) < tab.Capacity()/3 {
					val := uint32(r.Intn(1000))
					if err := tab.Insert(key, val); err != nil {
						return false
					}
					ref[key] = val
				}
			case 1:
				delete(ref, key)
				tab.Delete(key)
			case 2:
				v, ok := tab.Lookup(key)
				rv, rok := ref[key]
				if ok != rok || (ok && v != rv) {
					return false
				}
			}
		}
		return tab.Len() == len(ref)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperProvisioningHolds23K(t *testing.T) {
	// Section IV-C: a 32K-entry CAT (2 skews x 2K sets x 8 ways) must
	// hold 23K arbitrary entries without placement failure.
	tab := New(Config{Sets: 2048, Ways: 8, Seed: 3, MaxRelocations: 16})
	if tab.Capacity() != 32*1024 {
		t.Fatalf("capacity = %d, want 32K", tab.Capacity())
	}
	r := rng.New(12345)
	inserted := make(map[dram.Row]bool)
	for len(inserted) < 23053 {
		key := dram.Row(r.Intn(2 * 1024 * 1024))
		if inserted[key] {
			continue
		}
		if err := tab.Insert(key, uint32(len(inserted))); err != nil {
			t.Fatalf("placement failed at entry %d: %v", len(inserted), err)
		}
		inserted[key] = true
	}
	if tab.Len() != len(inserted) {
		t.Fatalf("len = %d, want %d", tab.Len(), len(inserted))
	}
	// Everything must still be found.
	for key := range inserted {
		if !tab.Contains(key) {
			t.Fatalf("lost key %d", key)
		}
	}
}

func TestErrFullWhenOverloaded(t *testing.T) {
	tab := New(Config{Sets: 1, Ways: 1, Seed: 1, MaxRelocations: 2})
	// Capacity 2 (two skews x 1 set x 1 way); inserting more keys than
	// capacity must eventually fail.
	var sawFull bool
	for i := 0; i < 10; i++ {
		if err := tab.Insert(dram.Row(i), 0); err == ErrFull {
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("overloaded table never reported ErrFull")
	}
}

func TestRelocationMakesRoom(t *testing.T) {
	// With relocation enabled the table approaches its capacity further
	// than the naive two-choice placement would.
	cfgNoReloc := Config{Sets: 16, Ways: 2, Seed: 5, MaxRelocations: 0}
	cfgReloc := cfgNoReloc
	cfgReloc.MaxRelocations = 8

	fill := func(cfg Config) int {
		tab := New(cfg)
		r := rng.New(777)
		n := 0
		for i := 0; i < tab.Capacity()*4; i++ {
			if err := tab.Insert(dram.Row(r.Intn(1<<20)), 0); err == nil {
				n++
			}
		}
		return n
	}
	if fill(cfgReloc) < fill(cfgNoReloc) {
		t.Fatal("relocation reduced achievable occupancy")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 1},
		{Sets: 3, Ways: 1},
		{Sets: 4, Ways: 0},
		{Sets: 4, Ways: 1, MaxRelocations: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestDeterministicPlacement(t *testing.T) {
	a, b := New(smallCfg()), New(smallCfg())
	for i := 0; i < 100; i++ {
		a.Insert(dram.Row(i*17), uint32(i))
		b.Insert(dram.Row(i*17), uint32(i))
	}
	for i := 0; i < 100; i++ {
		av, aok := a.Lookup(dram.Row(i * 17))
		bv, bok := b.Lookup(dram.Row(i * 17))
		if av != bv || aok != bok {
			t.Fatalf("tables diverged at %d", i*17)
		}
	}
	if a.Len() != b.Len() || a.Relocations() != b.Relocations() {
		t.Fatalf("tables diverged: len %d/%d, relocations %d/%d",
			a.Len(), b.Len(), a.Relocations(), b.Relocations())
	}
}

// TestRefillDoesNotAllocate pins what keeps a warm table allocation-free:
// a page stays allocated once made, so deleting every entry (as RRS's
// epoch end does to the RIT) and inserting the keys again makes no malloc.
func TestRefillDoesNotAllocate(t *testing.T) {
	tab := New(Config{Sets: 1024, Ways: 8, Seed: 3, MaxRelocations: 16})
	refill := func() {
		for i := 0; i < 2000; i++ {
			tab.Delete(dram.Row(i * 977))
		}
		for i := 0; i < 2000; i++ {
			if err := tab.Insert(dram.Row(i*977), uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	refill()
	if allocs := testing.AllocsPerRun(5, refill); allocs != 0 {
		t.Fatalf("deleting and reinserting 2000 keys made %v mallocs, want 0", allocs)
	}
}

// TestFullOccupancyFootprint fills a table at RRS's T_RH 1K RIT
// provisioning (32,768 sets x 8 ways x 2 skews) with 261,860 distinct keys,
// two per swap the 64 ms epoch allows, and bounds the bytes that takes
// (the TotalAlloc delta across New and the inserts) by the 6 MiB an
// eagerly allocated table of 12-byte slots cost. Allocating every page
// costs 4 MiB of 8-byte slots plus the page table; a slot pool grown by
// append would pay for its discarded doublings as well.
func TestFullOccupancyFootprint(t *testing.T) {
	const (
		mib  = 1 << 20
		keys = 261860
	)
	cfg := Config{Sets: 32768, Ways: 8, Seed: 1, MaxRelocations: 16}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := New(cfg)
	for i := 0; i < keys; i++ {
		// An odd multiplier permutes the 2M rows of the paper's rank, so
		// the keys are distinct and spread like random rows.
		key := dram.Row(uint32(i) * 0x9e3779b1 & (1<<21 - 1))
		if err := tab.Insert(key, uint32(i)); err != nil {
			t.Fatalf("insert %d of %d: %v", i, keys, err)
		}
	}
	runtime.ReadMemStats(&after)
	if tab.Len() != keys {
		t.Fatalf("len = %d, want %d", tab.Len(), keys)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d entries: %.2f MiB", keys, float64(got)/mib)
	if got > 6*mib {
		t.Fatalf("filling the table allocated %.2f MiB, more than the 6 MiB of eager slots", float64(got)/mib)
	}
}
