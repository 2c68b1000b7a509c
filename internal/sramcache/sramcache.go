// Package sramcache implements the FPT-Cache of AQUA's memory-mapped-table
// design (Sections V-C and V-D): a small set-associative SRAM cache of
// recently used Forward-Pointer-Table entries with RRIP replacement, group
// indexing (all rows of an FPT group map to the same set so a single extra
// probe can find any group member), and the singleton bit that filters
// DRAM lookups for groups with exactly one quarantined row.
package sramcache

import (
	"fmt"
)

// rrip constants: 2-bit re-reference prediction values.
const (
	rrpvBits = 2
	rrpvMax  = (1 << rrpvBits) - 1 // distant re-reference (eviction candidate)
	rrpvHit  = 0                   // near re-reference after a hit
	rrpvFill = rrpvMax - 1         // long re-reference on insertion (SRRIP)
)

type line struct {
	valid     bool
	row       uint32 // full row id acts as the tag
	value     uint16 // FPT entry: forward pointer into the RQA
	singleton bool   // group has exactly one valid FPT entry
	rrpv      uint8
}

// Cache is the FPT-Cache. Not safe for concurrent use.
type Cache struct {
	sets       int
	ways       int
	groupShift uint
	lines      []line
}

// New builds a cache with the given total entries and associativity.
// entries/ways must be a power of two. groupSize is the FPT group size used
// for set indexing (all rows of a group map to the same set). The paper's
// default is 4K entries, 16 ways, groups of 16.
func New(entries, ways, groupSize int) *Cache {
	if entries < 1 || ways < 1 || entries%ways != 0 {
		panic(fmt.Sprintf("sramcache: bad geometry entries=%d ways=%d", entries, ways))
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("sramcache: sets must be a power of two, got %d", sets))
	}
	if groupSize < 1 || groupSize&(groupSize-1) != 0 {
		panic(fmt.Sprintf("sramcache: group size must be a power of two, got %d", groupSize))
	}
	shift := uint(0)
	for 1<<shift != groupSize {
		shift++
	}
	return &Cache{
		sets:       sets,
		ways:       ways,
		groupShift: shift,
		lines:      make([]line, entries),
	}
}

// GroupOf returns the group index of a row.
func (c *Cache) GroupOf(row uint32) uint32 { return row >> c.groupShift }

// setIndex maps a row to its set via its group, so that every member of a
// group shares a set (required by the singleton probe).
func (c *Cache) setIndex(row uint32) int {
	g := uint64(c.GroupOf(row))
	// splitmix finalizer for dispersion across sets.
	g = (g ^ (g >> 30)) * 0xbf58476d1ce4e5b9
	g = (g ^ (g >> 27)) * 0x94d049bb133111eb
	g ^= g >> 31
	return int(g & uint64(c.sets-1))
}

func (c *Cache) set(idx int) []line {
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

// Lookup searches for the row's own FPT entry. On a hit the entry's RRPV is
// promoted.
func (c *Cache) Lookup(row uint32) (value uint16, hit bool) {
	set := c.set(c.setIndex(row))
	for i := range set {
		if set[i].valid && set[i].row == row {
			set[i].rrpv = rrpvHit
			return set[i].value, true
		}
	}
	return 0, false
}

// ProbeGroupSingleton performs the second, same-set probe of Section V-D:
// after a miss for `row`, check whether any *other* member of the row's
// group is resident with its singleton bit set. If so, the group has
// exactly one valid FPT entry — and it is not `row` — so the DRAM FPT
// lookup can be skipped.
func (c *Cache) ProbeGroupSingleton(row uint32) bool {
	g := c.GroupOf(row)
	set := c.set(c.setIndex(row))
	for i := range set {
		if set[i].valid && set[i].row != row && c.GroupOf(set[i].row) == g && set[i].singleton {
			return true
		}
	}
	return false
}

// Insert installs an FPT entry for a quarantined row, evicting by RRIP if
// the set is full. Only currently quarantined rows are inserted (Section
// V-C), which keeps the cache's working set to at most the RQA size.
func (c *Cache) Insert(row uint32, value uint16, singleton bool) {
	setIdx := c.setIndex(row)
	set := c.set(setIdx)
	// Update in place if already resident.
	for i := range set {
		if set[i].valid && set[i].row == row {
			set[i].value = value
			set[i].singleton = singleton
			set[i].rrpv = rrpvHit
			return
		}
	}
	victim := c.findVictim(set)
	set[victim] = line{valid: true, row: row, value: value, singleton: singleton, rrpv: rrpvFill}
}

// findVictim implements SRRIP: evict the first invalid line, otherwise the
// first line with RRPV == max, aging the set until one exists.
func (c *Cache) findVictim(set []line) int {
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	for {
		for i := range set {
			if set[i].rrpv >= rrpvMax {
				return i
			}
		}
		for i := range set {
			set[i].rrpv++
		}
	}
}

// Invalidate drops the row's entry if resident; it reports residency.
func (c *Cache) Invalidate(row uint32) bool {
	set := c.set(c.setIndex(row))
	for i := range set {
		if set[i].valid && set[i].row == row {
			set[i] = line{}
			return true
		}
	}
	return false
}

// SetGroupSingleton updates the singleton bit on every resident entry of
// the row's group. The engine calls this when the group's occupancy
// transitions to or from exactly one.
func (c *Cache) SetGroupSingleton(row uint32, singleton bool) {
	g := c.GroupOf(row)
	set := c.set(c.setIndex(row))
	for i := range set {
		if set[i].valid && c.GroupOf(set[i].row) == g {
			set[i].singleton = singleton
		}
	}
}

// Contains reports residency without touching replacement state.
func (c *Cache) Contains(row uint32) bool {
	set := c.set(c.setIndex(row))
	for i := range set {
		if set[i].valid && set[i].row == row {
			return true
		}
	}
	return false
}

// Len returns the number of valid lines.
func (c *Cache) Len() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}
