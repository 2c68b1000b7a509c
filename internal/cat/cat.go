// Package cat implements a Collision-Avoidance Table (CAT): an
// overprovisioned, skewed-associative lookup table adopted from MIRAGE and
// used by RRS for its Row Indirection Table and by AQUA for the SRAM
// variant of its Forward-Pointer Table (Section IV-C).
//
// A CAT stores (row -> pointer) mappings for entries that may come from
// arbitrary locations in memory. Two independent hash functions ("skews")
// each select a set; an incoming entry is installed in the set with more
// free ways (power-of-two-choices), with a bounded cuckoo-style relocation
// as a fallback. With the paper's overprovisioning (32K entries for at most
// 23K valid) the probability of an unplaceable entry is negligible; the
// implementation surfaces it as ErrFull so tests can verify the
// provisioning claim empirically.
//
// The table is provisioned for a whole epoch's worst case (6 MiB of slots
// for RRS's RIT at T_RH 1K), while a short run fills a few hundred
// entries. So the slots are allocated a page of sets at a time, on the
// first insert that lands in the page; a page never written reads as
// empty. Pages are kept once made, so a warm table allocates nothing.
package cat

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/dram"
)

// ErrFull is returned when an entry cannot be placed in either skew even
// after relocation. A correctly provisioned table never returns it.
var ErrFull = errors.New("cat: both candidate sets full and relocation failed")

// Config sizes a CAT.
type Config struct {
	// Sets per skew; must be a power of two.
	Sets int
	// Ways per set.
	Ways int
	// Seed differentiates hash functions across table instances.
	Seed uint64
	// MaxRelocations bounds the cuckoo relocation chain on insert.
	MaxRelocations int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sets < 1 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cat: sets must be a positive power of two, got %d", c.Sets)
	}
	if c.Ways < 1 {
		return fmt.Errorf("cat: ways must be >= 1, got %d", c.Ways)
	}
	if c.MaxRelocations < 0 {
		return fmt.Errorf("cat: negative MaxRelocations")
	}
	return nil
}

// pageSets is the number of sets one page holds (512 bytes at 8 ways).
// Pages this small keep a few hundred scattered entries to a few hundred
// KiB of a 4 MiB table, while the page table stays at 24 bytes per page.
const pageSets = 8

type slot struct {
	key   uint32 // row+1; 0 marks an empty way
	value uint32
}

// Table is a two-skew CAT mapping dram.Row keys to 32-bit values. Not safe
// for concurrent use.
type Table struct {
	cfg Config
	// pages holds skew 0's sets followed by skew 1's, pageSets (or all
	// 2*Sets, if fewer) to a page; a nil page has never been written.
	pages       [][]slot
	pageShift   uint // log2 of the sets per page
	count       int
	relocations int64
}

// New builds a CAT; it panics on invalid configuration.
func New(cfg Config) *Table {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	per := min(pageSets, 2*cfg.Sets)
	return &Table{
		cfg:       cfg,
		pages:     make([][]slot, 2*cfg.Sets/per),
		pageShift: uint(bits.TrailingZeros(uint(per))),
	}
}

// Capacity returns the total number of slots across both skews.
func (t *Table) Capacity() int { return 2 * t.cfg.Sets * t.cfg.Ways }

// Len returns the number of valid entries.
func (t *Table) Len() int { return t.count }

// Relocations returns the total number of cuckoo displacements performed.
func (t *Table) Relocations() int64 { return t.relocations }

// hash mixes the key with a per-skew seed (splitmix64 finalizer).
func (t *Table) hash(skew int, key dram.Row) int {
	z := uint64(key) + t.cfg.Seed + uint64(skew)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z & uint64(t.cfg.Sets-1))
}

// set returns the slots of the given skew/set, or nil while its page has
// never been written (every way empty). alloc makes the page if needed.
func (t *Table) set(skew, setIdx int, alloc bool) []slot {
	g := skew*t.cfg.Sets + setIdx
	page := &t.pages[g>>t.pageShift]
	if *page == nil {
		if !alloc {
			return nil
		}
		*page = make([]slot, t.cfg.Ways<<t.pageShift)
	}
	base := (g & (1<<t.pageShift - 1)) * t.cfg.Ways
	return (*page)[base : base+t.cfg.Ways]
}

// find returns the set and way holding key, or a nil set if it is absent.
func (t *Table) find(key dram.Row) ([]slot, int) {
	if key == dram.InvalidRow {
		return nil, 0 // its key+1 is 0, which every empty way holds
	}
	k := uint32(key) + 1
	for skew := 0; skew < 2; skew++ {
		set := t.set(skew, t.hash(skew, key), false)
		for i := range set {
			if set[i].key == k {
				return set, i
			}
		}
	}
	return nil, 0
}

// Lookup returns the value mapped to key.
func (t *Table) Lookup(key dram.Row) (uint32, bool) {
	if set, i := t.find(key); set != nil {
		return set[i].value, true
	}
	return 0, false
}

// Contains reports whether key is present.
func (t *Table) Contains(key dram.Row) bool {
	_, ok := t.Lookup(key)
	return ok
}

// used counts occupied ways in a set; a nil (unwritten) set has none.
func used(set []slot) int {
	n := 0
	for _, s := range set {
		if s.key != 0 {
			n++
		}
	}
	return n
}

// Insert adds or updates a mapping. Returns ErrFull only if both candidate
// sets are full and bounded relocation cannot make room. It panics on
// dram.InvalidRow, which is no row.
func (t *Table) Insert(key dram.Row, value uint32) error {
	if key == dram.InvalidRow {
		panic("cat: InvalidRow is not a key")
	}
	if set, i := t.find(key); set != nil {
		set[i].value = value
		return nil
	}
	return t.place(slot{key: uint32(key) + 1, value: value}, t.cfg.MaxRelocations)
}

// place installs an entry whose key is known to be absent.
func (t *Table) place(s slot, budget int) error {
	key := dram.Row(s.key - 1)
	h0, h1 := t.hash(0, key), t.hash(1, key)
	set0, set1 := t.set(0, h0, false), t.set(1, h1, false)
	u0, u1 := used(set0), used(set1)
	if u0 == t.cfg.Ways && u1 == t.cfg.Ways {
		if budget <= 0 {
			return ErrFull
		}
		// Relocate: displace the first entry of skew 0's set to its
		// alternate skew, recursively.
		victim := set0[0]
		set0[0] = s
		t.relocations++
		t.count-- // the displaced victim is re-inserted below
		if err := t.place(victim, budget-1); err != nil {
			// Roll back: restore the victim and report failure.
			set0[0] = victim
			t.count++
			return ErrFull
		}
		t.count++
		return nil
	}
	// The emptier set wins, skew 0 on a tie; an unwritten set gets its
	// page now.
	skew, idx := 0, h0
	if u1 < u0 {
		skew, idx = 1, h1
	}
	target := t.set(skew, idx, true)
	for i := range target {
		if target[i].key == 0 {
			target[i] = s
			t.count++
			return nil
		}
	}
	panic("cat: unreachable: free way disappeared")
}

// Delete removes a mapping; it reports whether the key was present.
func (t *Table) Delete(key dram.Row) bool {
	set, i := t.find(key)
	if set == nil {
		return false
	}
	set[i] = slot{}
	t.count--
	return true
}
