// Package rowmap is an open-addressing hash map from dram.Row to an int32,
// for per-row simulator state whose live entries are a small fraction of
// the rank's rows: tracker counters, forward pointers, swap partners. A
// dense array indexed by row costs 4-8 MiB at the paper's 2M rows and is
// allocated and zeroed on every system build; a Map costs 8 bytes per
// slot and is sized by what it holds.
//
// The slot count is a power of two. A row's home slot is a multiplicative
// (Fibonacci) hash of it, and collisions probe linearly. Delete shifts
// the rest of the probe run back instead of leaving tombstones, so churn
// never lengthens a probe. Keys are stored as row+1: a zero slot is
// empty, so a freshly made table is already empty and Clear is a memclr.
package rowmap

import (
	"math/bits"

	"repro/internal/dram"
)

type slot struct {
	key uint32 // row+1; 0 marks an empty slot
	val int32
}

// Map maps dram.Row to int32. The zero Map is empty and grows on its
// first Set. It keeps its load at or below one half, doubling when a
// Set would exceed that. Not safe for concurrent use.
type Map struct {
	slots []slot
	shift uint // 32 - log2(len(slots))
	n     int
}

// New returns a map that holds n entries without growing.
func New(n int) Map { return sized(slotsFor(n)) }

// slotsFor returns the fewest slots, a power of two and at least 8, that
// hold n entries at the load bound.
func slotsFor(n int) int {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return size
}

// sized returns an empty map with size slots, a power of two.
func sized(size int) Map {
	return Map{slots: make([]slot, size), shift: 32 - uint(bits.TrailingZeros(uint(size)))}
}

// home is k's home slot: the top log2(len) bits of k times 2^32/phi. The
// shift is at most 29, and masking it to 5 bits spares the hot probe the
// compiler's fix-up for shifts of 32 or more.
func (m *Map) home(k uint32) int { return int((k * 0x9e3779b9) >> (m.shift & 31)) }

// Len returns the number of entries.
func (m *Map) Len() int { return m.n }

// find returns the index of the slot holding key k, or -1. The empty
// case comes first so that k == 0, InvalidRow's key, is never found.
func (m *Map) find(k uint32) int {
	if m.n == 0 {
		return -1
	}
	mask := len(m.slots) - 1
	for i := m.home(k); ; i = (i + 1) & mask {
		switch m.slots[i].key {
		case 0:
			return -1
		case k:
			return i
		}
	}
}

// Ref returns a pointer to row's value, or nil when row is absent. The
// pointer is valid until the next Set, Delete or Clear.
func (m *Map) Ref(row dram.Row) *int32 {
	if i := m.find(uint32(row) + 1); i >= 0 {
		return &m.slots[i].val
	}
	return nil
}

// Get returns row's value and whether it is present.
func (m *Map) Get(row dram.Row) (int32, bool) {
	if p := m.Ref(row); p != nil {
		return *p, true
	}
	return 0, false
}

// Set maps row to v.
func (m *Map) Set(row dram.Row, v int32) {
	if row == dram.InvalidRow {
		panic("rowmap: InvalidRow is not a key")
	}
	if p := m.Ref(row); p != nil {
		*p = v
		return
	}
	if 2*(m.n+1) > len(m.slots) {
		m.resize(max(8, 2*len(m.slots)))
	}
	m.insert(slot{key: uint32(row) + 1, val: v})
}

// Reserve grows the map, if it must, so that it holds n entries without
// growing again.
func (m *Map) Reserve(n int) {
	if size := slotsFor(n); size > len(m.slots) {
		m.resize(size)
	}
}

// resize moves the entries into a new table of size slots.
func (m *Map) resize(size int) {
	old := m.slots
	*m = sized(size)
	for _, s := range old {
		if s.key != 0 {
			m.insert(s)
		}
	}
}

// insert places an absent key; the table has room for it.
func (m *Map) insert(s slot) {
	mask := len(m.slots) - 1
	i := m.home(s.key)
	for m.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = s
	m.n++
}

// Delete removes row and reports whether it was present.
func (m *Map) Delete(row dram.Row) bool {
	i := m.find(uint32(row) + 1)
	if i < 0 {
		return false
	}
	mask := len(m.slots) - 1
	// Backward shift: walk the run after the hole and move back every
	// entry whose home lies cyclically at or before the hole, so each
	// remaining key stays reachable from its home without an empty slot.
	for j := (i + 1) & mask; m.slots[j].key != 0; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].key))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = slot{}
	m.n--
	return true
}

// Clear removes every entry, keeping the table's size.
func (m *Map) Clear() {
	if m.n > 0 {
		clear(m.slots)
		m.n = 0
	}
}

// Range calls fn for every entry in slot order until fn returns false.
// fn must not modify the map.
func (m *Map) Range(fn func(row dram.Row, v int32) bool) {
	for _, s := range m.slots {
		if s.key != 0 && !fn(dram.Row(s.key-1), s.val) {
			return
		}
	}
}
