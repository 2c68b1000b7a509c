// Package bloom implements AQUA's resettable bloom filter (Section V-B):
// a single-bit-per-entry vector that identifies rows which are *possibly*
// quarantined, so the memory controller can skip the FPT lookup for the
// vast majority of accesses.
//
// The filter is direct-mapped by *group*: all rows whose FPT entries share
// the same half of a 64-byte memory-mapped-FPT cacheline (16 entries of 2
// bytes) map to one bit. The bit is set while any FPT entry in the group is
// valid and reset as soon as the last one is invalidated — which is what
// makes the filter resettable without counting bloom filters' 6x SRAM cost.
// A zero bit is a definitive "not quarantined"; a set bit means "possibly
// quarantined" (a false positive when the quarantined row is a different
// member of the group).
package bloom

import "fmt"

// Filter is the resettable group bloom filter. Not safe for concurrent use.
type Filter struct {
	groupShift uint
	bits       []uint64
	occupancy  []uint16 // valid FPT entries per group (model-side bookkeeping)
	nGroups    int
}

// New builds a filter covering totalRows rows with groupSize rows per bit.
// groupSize must be a power of two. The paper's default is 2M rows with
// groups of 16, i.e. 128K bits = 16KB SRAM.
func New(totalRows, groupSize int) *Filter {
	if totalRows < 1 {
		panic("bloom: need at least one row")
	}
	if groupSize < 1 || groupSize&(groupSize-1) != 0 {
		panic(fmt.Sprintf("bloom: group size must be a positive power of two, got %d", groupSize))
	}
	shift := uint(0)
	for 1<<shift != groupSize {
		shift++
	}
	nGroups := (totalRows + groupSize - 1) / groupSize
	return &Filter{
		groupShift: shift,
		bits:       make([]uint64, (nGroups+63)/64),
		occupancy:  make([]uint16, nGroups),
		nGroups:    nGroups,
	}
}

// Groups returns the number of groups (bits) in the filter.
func (f *Filter) Groups() int { return f.nGroups }

// GroupOf returns the group index of a row.
func (f *Filter) GroupOf(row uint32) uint32 { return row >> f.groupShift }

// GroupSize returns the number of rows per group.
func (f *Filter) GroupSize() int { return 1 << f.groupShift }

// groupRangeError is checkGroup's panic value. Formatting the message
// only when it is printed keeps Add, Remove, MightContain and
// GroupOccupancy within the inliner's budget.
type groupRangeError struct {
	group  uint32
	groups int
}

func (e groupRangeError) Error() string {
	return fmt.Sprintf("bloom: group %d out of range (%d groups)", e.group, e.groups)
}

func (f *Filter) checkGroup(g uint32) {
	if int(g) >= f.nGroups {
		panic(groupRangeError{g, f.nGroups})
	}
}

// Add records that the row's FPT entry became valid: the group bit is set
// and the group occupancy incremented.
func (f *Filter) Add(row uint32) {
	g := f.GroupOf(row)
	f.checkGroup(g)
	f.occupancy[g]++
	f.bits[g/64] |= 1 << (g % 64)
}

// Remove records that the row's FPT entry was invalidated. The group bit is
// cleared only when no valid entries remain in the group.
func (f *Filter) Remove(row uint32) {
	g := f.GroupOf(row)
	f.checkGroup(g)
	if f.occupancy[g] == 0 {
		panic("bloom: Remove without matching Add")
	}
	f.occupancy[g]--
	if f.occupancy[g] == 0 {
		f.bits[g/64] &^= 1 << (g % 64)
	}
}

// MightContain reports whether the row is possibly quarantined. False means
// definitively not quarantined.
func (f *Filter) MightContain(row uint32) bool {
	g := f.GroupOf(row)
	f.checkGroup(g)
	return f.bits[g/64]&(1<<(g%64)) != 0
}

// GroupOccupancy returns the number of valid FPT entries in the row's
// group. The AQUA engine uses occupancy == 1 to maintain singleton bits.
func (f *Filter) GroupOccupancy(row uint32) int {
	g := f.GroupOf(row)
	f.checkGroup(g)
	return int(f.occupancy[g])
}
