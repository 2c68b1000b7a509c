// Package tracker implements aggressor-row trackers: the structures that
// watch DRAM activations and flag rows whose activation count crosses the
// mitigation threshold within an epoch.
//
// AQUA is tracker-agnostic (Section IV-B); this package provides the three
// designs the paper discusses:
//
//   - MisraGries: the per-bank Misra-Gries frequent-elements tracker used by
//     Graphene and RRS, including the spill-counter behaviour that causes
//     the spurious mitigations the paper observes (Section IV-F).
//   - Hydra: a storage-optimized hybrid tracker in the spirit of Hydra —
//     small SRAM group counters backed by exact per-row counters that are
//     materialized (conceptually in DRAM) only when a group gets hot.
//   - Exact: a reference tracker with one exact counter per row, used to
//     validate the others and for security proofs in tests.
//
// All trackers share the same contract: RecordACT is invoked once per row
// activation with the *physical* row (after any FPT indirection, per
// security property P3) and returns true each time the row's estimated
// count reaches a fresh multiple of the threshold, at which point the
// mitigation engine must act.
package tracker

import (
	"fmt"
	"math/bits"

	"repro/internal/dram"
	"repro/internal/rowmap"
)

// Tracker observes activations and flags aggressor rows.
type Tracker interface {
	// RecordACT records one activation of a physical row and reports
	// whether the row has just crossed a (multiple of the) threshold and
	// therefore requires mitigation.
	RecordACT(row dram.Row) bool
	// Reset clears per-epoch state. Called every tracker epoch (the paper
	// resets at every 64ms refresh interval).
	Reset()
	// SRAMBytes returns the tracker's SRAM footprint for storage accounting.
	SRAMBytes() int
	// Name identifies the tracker in reports.
	Name() string
}

// entry is one Misra-Gries table slot as the eviction heap sees it. The
// count here is a *lazily maintained lower bound* on the row's true count
// in MisraGries.cnt: the hot path increments cnt without touching the
// heap, and ensureMin refreshes keys only when an eviction decision needs
// the true minimum. The heaps are provisioned at ProvisionEntries per
// bank (8,183 entries, 130,928 per rank, at RRS's T_RH 1K), so the count
// takes cnt's int32 bound to keep an entry at 8 bytes.
type entry struct {
	row   dram.Row
	count int32
}

// MisraGries is a per-bank Misra-Gries (Graphene-style) tracker. Each bank
// owns a small table of (row, counter) pairs plus a spill counter. The
// Misra-Gries invariant — every row's estimated count is at least its true
// count — guarantees that any row activated `threshold` times in an epoch
// is flagged, provided the table has at least ACTmax/threshold entries per
// bank.
//
// Faithful quirk: a newly installed row inherits the spill counter value,
// so its estimated count starts above its true count; sufficiently active
// banks therefore trigger occasional *spurious* mitigations exactly as the
// paper reports for workloads like imagick (Section IV-F).
//
// Layout: the authoritative counts live in the cnt row map (one probe per
// RecordACT on the already-tracked fast path — the common case, since hot
// rows stay tracked). Each bank's heap orders entries by a stale
// (count, row) key that is a lower bound on the true count; keys are
// refreshed top-down only when the full-table install path needs the true
// minimum. Deferring the per-hit sift-down this way keeps the eviction
// victim *identical* to an eagerly-maintained heap: counts only grow, so
// a stale key never overtakes a true one, and the refreshed root is the
// unique true minimum (rows break count ties, and no two entries share a
// row).
type MisraGries struct {
	geom      dram.Geometry
	threshold int64
	capacity  int
	banks     []mgBank
	// cnt maps every tracked row to its estimated count, shared by all
	// banks (each row belongs to exactly one bank); a row is present
	// exactly when it sits in its bank's heap, so the map never holds more
	// than capacity entries per bank and is made that big up front. This
	// is the single probe of the RecordACT fast path. int32 cannot
	// overflow: counts reset every epoch, and an epoch holds at most
	// ~tREFW/tRC ~ 1.4M activations per bank, far below 2^31.
	cnt rowmap.Map
	// thr is the precomputed divide-free divisibility test for threshold.
	thr multiple
}

type mgBank struct {
	heap  []entry // min-heap on the stale (count, row) lower bounds
	spill int32   // bounded like the counts: by the bank's ACTs per epoch
}

// NewMisraGries builds a tracker that flags rows every `threshold`
// activations. entriesPerBank is sized so the Misra-Gries guarantee holds:
// the canonical provisioning is ACTmax/threshold entries (use
// ProvisionEntries).
func NewMisraGries(geom dram.Geometry, threshold int64, entriesPerBank int) *MisraGries {
	if threshold < 1 {
		panic("tracker: threshold must be >= 1")
	}
	if entriesPerBank < 1 {
		panic("tracker: need at least one entry per bank")
	}
	// A bank's table never holds more rows than the bank has.
	live := min(entriesPerBank, geom.RowsPerBank)
	t := &MisraGries{
		geom:      geom,
		threshold: threshold,
		capacity:  entriesPerBank,
		banks:     make([]mgBank, geom.Banks),
		cnt:       rowmap.New(live * geom.Banks),
		thr:       newMultiple(threshold),
	}
	for i := range t.banks {
		t.banks[i] = mgBank{heap: make([]entry, 0, live)}
	}
	return t
}

// multiple tests divisibility by a fixed positive divisor without a
// hardware divide, which RecordACT would otherwise pay on every
// activation. Write d = 2^shift * odd: x is a multiple of d exactly when
// its low `shift` bits are zero and (x>>shift) * inverse(odd) (mod 2^64)
// lands in [0, floor((2^64-1)/odd)] — the Granlund-Montgomery/Lemire
// divisibility test (multiplication by the odd inverse permutes residues
// and maps exactly the multiples into that range).
type multiple struct {
	shift uint
	inv   uint64 // multiplicative inverse of d>>shift modulo 2^64
	lim   uint64 // floor((2^64-1) / (d>>shift))
}

func newMultiple(d int64) multiple {
	u := uint64(d)
	shift := uint(bits.TrailingZeros64(u))
	odd := u >> shift
	// Newton iteration for the odd inverse mod 2^64: x0 = odd is correct
	// to 3 bits (odd^2 = 1 mod 8), and each step doubles the correct
	// low-bit count, so 5 steps reach >= 64 bits.
	inv := odd
	for i := 0; i < 5; i++ {
		inv *= 2 - odd*inv
	}
	return multiple{shift: shift, inv: inv, lim: ^uint64(0) / odd}
}

// of reports whether x (>= 0) is a multiple of the divisor.
func (m multiple) of(x int64) bool {
	u := uint64(x)
	return u&(1<<m.shift-1) == 0 && (u>>m.shift)*m.inv <= m.lim
}

// heap helpers: min-heap ordered by (count, row). The row id breaks count
// ties so the eviction victim is a canonical function of the table
// contents — without it, which of several minimum-count entries sat at
// the root depended on insertion history, and a future refactor of the
// install path could silently change every downstream figure.

func (b *mgBank) less(i, j int) bool {
	if b.heap[i].count != b.heap[j].count {
		return b.heap[i].count < b.heap[j].count
	}
	return b.heap[i].row < b.heap[j].row
}

func (b *mgBank) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !b.less(i, parent) {
			return
		}
		b.heap[i], b.heap[parent] = b.heap[parent], b.heap[i]
		i = parent
	}
}

// siftDown restores heap order below i.
func (b *mgBank) siftDown(i int) {
	n := len(b.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && b.less(left, smallest) {
			smallest = left
		}
		if right < n && b.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		b.heap[i], b.heap[smallest] = b.heap[smallest], b.heap[i]
		i = smallest
	}
}

// ensureMin refreshes the heap root until it carries its true count, at
// which point it is the bank's true (count, row) minimum: every key is a
// lower bound, so for any other entry trueKey >= staleKey >= root's key,
// and distinct rows make the order strict. Each iteration freshens one
// stale entry, so the loop terminates in at most len(heap) steps; across
// RecordACT calls the work is bounded by the hit-path sifts it replaced.
func (t *MisraGries) ensureMin(b *mgBank) {
	for {
		true_, _ := t.cnt.Get(b.heap[0].row)
		if true_ == b.heap[0].count {
			return
		}
		b.heap[0].count = true_
		b.siftDown(0)
	}
}

// ProvisionEntries returns the per-bank Misra-Gries table size required to
// guarantee detection of every row reaching `threshold` activations within
// an epoch, given the bank's activation budget.
func ProvisionEntries(timing dram.Timing, threshold int64) int {
	if threshold < 1 {
		panic("tracker: threshold must be >= 1")
	}
	n := timing.ACTMax() / threshold
	if n < 1 {
		n = 1
	}
	return int(n)
}

// Name implements Tracker.
func (t *MisraGries) Name() string { return "misra-gries" }

// Threshold returns the per-epoch flagging threshold.
func (t *MisraGries) Threshold() int64 { return t.threshold }

// RecordACT implements Tracker. The already-tracked fast path is a single
// row-map probe and increment; the heap is not touched (its key for this
// row goes stale as a lower bound, repaired lazily by ensureMin).
func (t *MisraGries) RecordACT(row dram.Row) bool {
	if c := t.cnt.Ref(row); c != nil {
		*c++
		return t.thr.of(int64(*c))
	}
	return t.install(row)
}

// install is the untracked-row slow path: claim a free slot, or pump the
// spill counter and apply Graphene's swap rule against the true minimum.
func (t *MisraGries) install(row dram.Row) bool {
	b := &t.banks[t.geom.BankOf(row)]
	if len(b.heap) < t.capacity {
		// Free slot: install with the spill counter inherited, which may
		// immediately cross the threshold (the spurious-mitigation path).
		c := b.spill + 1
		t.cnt.Set(row, c)
		b.heap = append(b.heap, entry{row: row, count: c})
		b.siftUp(len(b.heap) - 1)
		return t.thr.of(int64(c))
	}
	// Table full: bump the spill counter; once it catches up with the
	// minimum tracked count, the minimum entry and the spill counter
	// exchange roles (Graphene's swap rule): the new row is installed
	// with the spill value as its count, and the evicted entry's count
	// becomes the new spill value. The exchange keeps the Misra-Gries
	// sum invariant (sum of counters + spill <= total ACTs + capacity),
	// which bounds the spill by ~ACTs/capacity and yields the detection
	// guarantee. The root's stale key is a lower bound, so a spill below
	// it is below the true minimum too and skips the refresh entirely.
	b.spill++
	if b.spill >= b.heap[0].count {
		t.ensureMin(b)
		if b.spill >= b.heap[0].count {
			evicted := b.heap[0].count
			t.cnt.Delete(b.heap[0].row)
			c := b.spill
			t.cnt.Set(row, c)
			b.heap[0] = entry{row: row, count: c}
			b.siftDown(0)
			b.spill = evicted
			return t.thr.of(int64(c))
		}
	}
	return false
}

// Reset implements Tracker.
func (t *MisraGries) Reset() {
	t.cnt.Clear()
	for i := range t.banks {
		t.banks[i].heap = t.banks[i].heap[:0]
		t.banks[i].spill = 0
	}
}

// EstimatedCount returns the tracker's current estimate for a row (0 if
// untracked); exposed for tests.
func (t *MisraGries) EstimatedCount(row dram.Row) int64 {
	c, _ := t.cnt.Get(row)
	return int64(c)
}

// Spill returns the current spill counter of the row's bank; exposed for
// tests of the Misra-Gries invariant.
func (t *MisraGries) Spill(bank int) int64 { return int64(t.banks[bank].spill) }

// CheckConsistency verifies the tracker's structural invariants: min-heap
// order on the stale keys in every bank, every key a lower bound on the
// row's authoritative count, counts at least 1, and no counted row outside
// the heaps.
func (t *MisraGries) CheckConsistency() error {
	tracked := 0
	for bi := range t.banks {
		b := &t.banks[bi]
		tracked += len(b.heap)
		for i := range b.heap {
			c, _ := t.cnt.Get(b.heap[i].row)
			if c < 1 {
				return fmt.Errorf("tracker: bank %d heap[%d] row %d has count %d < 1", bi, i, b.heap[i].row, c)
			}
			if b.heap[i].count > c {
				return fmt.Errorf("tracker: bank %d heap[%d] key %d exceeds row %d's count %d",
					bi, i, b.heap[i].count, b.heap[i].row, c)
			}
			if i > 0 {
				if parent := (i - 1) / 2; b.less(i, parent) {
					return fmt.Errorf("tracker: bank %d heap order violated at %d (key %d under parent %d)",
						bi, i, b.heap[i].count, b.heap[parent].count)
				}
			}
		}
	}
	// Heap rows are distinct and each is counted, so equal sizes mean the
	// map holds nothing else.
	if t.cnt.Len() != tracked {
		return fmt.Errorf("tracker: %d rows counted but %d tracked in the heaps", t.cnt.Len(), tracked)
	}
	return nil
}

// SRAMBytes implements Tracker: per entry one row tag (log2 rowsPerBank
// bits, rounded up) plus a counter, per bank, matching the ~396KB/rank the
// paper charges the MG tracker at threshold 500 (Appendix B). The count
// map is a simulator acceleration structure, not hardware state, so it is
// not charged here.
func (t *MisraGries) SRAMBytes() int {
	perEntry := 5 // 21-bit row tag + ~19-bit counter, rounded up to 5 bytes
	return t.capacity * perEntry * len(t.banks)
}

// Exact tracks every row with an exact counter. It is the reference
// implementation used to validate guarantee properties; its SRAM cost would
// be impractical in hardware.
type Exact struct {
	threshold int64
	counts    []int64
}

// NewExact builds an exact tracker over the geometry.
func NewExact(geom dram.Geometry, threshold int64) *Exact {
	if threshold < 1 {
		panic("tracker: threshold must be >= 1")
	}
	return &Exact{threshold: threshold, counts: make([]int64, geom.Rows())}
}

// Name implements Tracker.
func (t *Exact) Name() string { return "exact" }

// RecordACT implements Tracker.
func (t *Exact) RecordACT(row dram.Row) bool {
	t.counts[row]++
	return t.counts[row]%t.threshold == 0
}

// Reset implements Tracker.
func (t *Exact) Reset() {
	for i := range t.counts {
		t.counts[i] = 0
	}
}

// Count returns the exact per-epoch count for a row.
func (t *Exact) Count(row dram.Row) int64 { return t.counts[row] }

// SRAMBytes implements Tracker.
func (t *Exact) SRAMBytes() int { return len(t.counts) * 3 }

// Hydra is a storage-optimized hybrid tracker in the spirit of Qureshi et
// al.'s Hydra: a small SRAM table of *group* counters covers all rows; when
// a group's shared counter crosses a fraction of the threshold, the group
// is "split" and exact per-row counters are materialized (in DRAM in the
// real design; here the DRAM residency only affects the storage accounting
// and a per-access latency charge recorded in stats).
type Hydra struct {
	threshold  int64
	groupShift uint // rows per group = 1<<groupShift
	// groups folds the shared counter and the split seed into one probe:
	// a non-negative value is the group's shared count (not yet split); a
	// negative value marks a split group whose seed — the shared count at
	// split time — is the negation. Every member row's per-row counter is
	// lazily seeded with it (a sound over-approximation of the row's
	// pre-split count). The encoding is sound because a shared count and
	// a seed are both always >= 1 when they matter.
	groups []int32
	// split holds the materialized per-row counters as a dense array keyed
	// by flat Row; 0 means "not yet materialized" (sound as a sentinel:
	// a materialized counter starts at the split-time group count >= 1 and
	// only ever increments). int32 is safe because per-epoch counts are
	// physically bounded far below 2^31.
	split []int32
	// DRAMLookups counts accesses that had to consult the in-DRAM row
	// counters (a proxy for Hydra's extra memory traffic).
	DRAMLookups int64
	// thr is the precomputed divide-free divisibility test for threshold.
	thr multiple
}

// NewHydra builds a Hydra-like tracker. groupSize must be a power of two.
func NewHydra(geom dram.Geometry, threshold int64, groupSize int) *Hydra {
	if threshold < 2 {
		panic("tracker: hydra threshold must be >= 2")
	}
	if groupSize < 1 || groupSize&(groupSize-1) != 0 {
		panic("tracker: hydra group size must be a positive power of two")
	}
	shift := uint(0)
	for 1<<shift != groupSize {
		shift++
	}
	nGroups := (geom.Rows() + groupSize - 1) / groupSize
	return &Hydra{
		threshold:  threshold,
		groupShift: shift,
		groups:     make([]int32, nGroups),
		split:      make([]int32, geom.Rows()),
		thr:        newMultiple(threshold),
	}
}

// Name implements Tracker.
func (t *Hydra) Name() string { return "hydra" }

func (t *Hydra) groupOf(row dram.Row) uint32 { return uint32(row) >> t.groupShift }

// RecordACT implements Tracker. The group counter over-approximates each
// member row's count, so splitting at threshold/2 preserves the guarantee:
// a row can never reach `threshold` without its group having split first,
// after which it is tracked with a per-row counter seeded from the group
// count (est >= true, so a flag always fires at or before the true count
// reaches the threshold). One group-array probe decides both the split
// state and the seed (see the groups field comment).
func (t *Hydra) RecordACT(row dram.Row) bool {
	g := t.groupOf(row)
	gc := t.groups[g]
	if gc >= 0 {
		gc++
		t.groups[g] = gc
		if int64(gc) >= t.threshold/2 {
			// Split: per-row counters take over from here.
			t.groups[g] = -gc
			t.DRAMLookups++
			t.split[row] = gc
			return t.thr.of(int64(gc))
		}
		return false
	}
	t.DRAMLookups++
	c := t.split[row]
	if c == 0 {
		c = -gc // lazy seeding with the split-time group count
	}
	c++
	t.split[row] = c
	return t.thr.of(int64(c))
}

// Reset implements Tracker.
func (t *Hydra) Reset() {
	clear(t.groups)
	clear(t.split)
	t.DRAMLookups = 0
}

// SRAMBytes implements Tracker: 2 bytes per group counter (the in-DRAM row
// counters are excluded, as in the paper's Table VII which charges Hydra
// 28.3KB SRAM).
func (t *Hydra) SRAMBytes() int { return len(t.groups) * 2 }
