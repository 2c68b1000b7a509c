// Package core implements AQUA, the paper's primary contribution: a
// Rowhammer mitigation that quarantines aggressor rows at runtime in a
// dedicated Row Quarantine Area (RQA) of memory (Section IV).
//
// The engine owns:
//
//   - the RQA, a region of DRAM rows reserved by the memory controller and
//     invisible to software, managed as a circular buffer with a head
//     pointer;
//   - the Forward-Pointer Table (FPT), mapping quarantined install rows to
//     their RQA slot;
//   - the Reverse-Pointer Table (RPT), mapping each RQA slot back to the
//     install row it holds;
//   - an Aggressor-Row Tracker (ART), by default a per-bank Misra-Gries
//     tracker that flags a row every T_RH/2 activations;
//   - in memory-mapped mode (Section V), the resettable bloom filter, the
//     FPT-Cache with singleton filtering, and the in-DRAM copies of FPT
//     and RPT whose accesses consume real channel time — with the FPT
//     entries of the table-holding rows pinned in SRAM to avoid recursive
//     lookups (Section VI-B).
//
// Epoch behaviour follows Section IV-A: the tracker resets every refresh
// interval, while FPT/RPT entries drain lazily — a stale entry is evicted
// (moved back to its original location) only when its RQA slot is about to
// be reused, and a slot is never reused within the epoch in which it was
// last hammered.
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/analytic"
	"repro/internal/bloom"
	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/mitigation"
	"repro/internal/rowmap"
	"repro/internal/sramcache"
	"repro/internal/tracker"
)

// Mode selects where AQUA's mapping tables live.
type Mode int

const (
	// ModeSRAM stores FPT and RPT entirely in SRAM (Section IV-C: 172KB
	// per rank at T_RH=1K).
	ModeSRAM Mode = iota
	// ModeMemMapped stores FPT and RPT in DRAM and filters lookups with a
	// bloom filter and FPT-Cache (Section V: 41KB SRAM per rank).
	ModeMemMapped
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeSRAM {
		return "sram"
	}
	return "memmapped"
}

// Config parameterizes an AQUA engine.
type Config struct {
	// TRH is the Rowhammer threshold; migrations trigger every TRH/2
	// activations (the tracker-reset headroom of property P1).
	TRH int64
	// Mode selects SRAM or memory-mapped tables.
	Mode Mode
	// RQARows overrides the quarantine size; 0 derives it from Equation 3.
	RQARows int
	// Tracker overrides the aggressor-row tracker; nil uses a per-bank
	// Misra-Gries tracker provisioned per the Graphene rule.
	Tracker tracker.Tracker
	// BloomGroupSize is the rows-per-bloom-bit grouping (default 16: half a
	// 64-byte FPT cacheline).
	BloomGroupSize int
	// FPTCacheEntries sizes the FPT-Cache (default 4K entries, in
	// fptCacheWays-way sets).
	FPTCacheEntries int
	// ProactiveDrain enables the Section IV-D optimization: during idle
	// periods the engine evicts stale quarantine entries just ahead of
	// the head pointer, so a later quarantine rarely pays the extra
	// 1.37us move-out on its critical path.
	ProactiveDrain bool
	// Invariants, when non-nil, enables runtime invariant checking: O(1)
	// structural assertions after every mitigation plus the full
	// CheckInvariants sweep at each epoch boundary, reported through the
	// checker instead of panicking.
	Invariants *invariant.Checker
}

func (c *Config) fillDefaults() {
	if c.TRH == 0 {
		c.TRH = 1000
	}
	if c.BloomGroupSize == 0 {
		c.BloomGroupSize = 16
	}
	if c.FPTCacheEntries == 0 {
		c.FPTCacheEntries = 4096
	}
}

// The FPT-Cache's associativity, the bloom filter's and FPT-Cache's lookup
// latencies at 3 GHz (SRAM tables take mitigation.SRAMLatency), and how
// many slots ahead of the head pointer the proactive drainer scans per
// idle call.
const (
	fptCacheWays   = 16
	bloomLatency   = dram.PS(340) // ~1 cycle
	cacheLatency   = dram.PS(670) // ~2 cycles
	drainLookahead = 64
)

// EffectiveThreshold returns the migration trigger threshold T_RH/2.
func (c Config) EffectiveThreshold() int64 {
	t := c.TRH / 2
	if t < 1 {
		t = 1
	}
	return t
}

// rptEntry is one Reverse-Pointer Table slot (12 bytes).
type rptEntry struct {
	install dram.Row // original (install) row held in this slot
	valid   bool
	// epochUsed is the last epoch in which this slot was installed to or
	// hammered; a slot is never reused as a destination within that epoch.
	epochUsed int32
}

// Engine is the AQUA mitigation engine for one rank. It implements
// mitigation.Mitigator. Not safe for concurrent use.
type Engine struct {
	cfg  Config
	rank *dram.Rank
	geom dram.Geometry

	art tracker.Tracker

	// Region layout (rows reserved from the top of every bank).
	layout

	// fptSlot is the authoritative forward mapping: install row -> RQA slot,
	// holding exactly the quarantined rows. It starts empty and doubles to
	// its high-water mark, at most one entry per slot; a short run
	// quarantines a small fraction of an epoch-sized RQA. In hardware this
	// is the FPT content; the mode's lookup latency, and in memory-mapped
	// mode the in-DRAM table walk, model the *access cost* of reaching it.
	// The SRAM FPT's CAT organisation is charged in storage
	// (analytic.ComputeStorage), not simulated.
	fptSlot rowmap.Map
	// present (SRAM mode only) holds one bit per row of the rank, set
	// exactly for the rows fptSlot holds: Translate tests a row's bit
	// before it probes fptSlot, so an unquarantined row costs one bit test
	// instead of a hash probe. Memory-mapped mode's bloom filter does the
	// same job there. mitigate sets a bit where it writes fptSlot,
	// clearMapping clears it where it deletes the entry, and
	// CheckInvariants audits the two against each other.
	present []uint64
	rpt     []rptEntry
	head    int
	// epoch counts tracker epochs; an int32 lasts 2^31 64 ms epochs, over
	// four years of simulated time.
	epoch int32
	// quarCount tracks the number of valid RPT entries incrementally, so
	// the invariant layer can assert occupancy in O(1) after each
	// mitigation and cross-check it against the full scan at epoch ends.
	quarCount int
	chk       *invariant.Checker
	// drainCursor is the proactive drainer's sweep position;
	// drainRemaining counts the slots left in the current epoch's sweep
	// (0 = sweep complete, nothing more to drain until the next epoch).
	drainCursor    int
	drainRemaining int

	// Memory-mapped mode structures.
	bloom    *bloom.Filter
	fptCache *sramcache.Cache

	stats mitigation.Stats
}

// compile-time interface check
var _ mitigation.Mitigator = (*Engine)(nil)

// layout is the pure region arithmetic of an engine: how many rows the
// RQA and (in memory-mapped mode) the FPT/RPT table strips reserve. It is
// computed without touching DRAM or tracker state, so callers that only
// need the software-visible region size (sim.VisibleRegion) can get it
// without paying for an engine build.
type layout struct {
	rqaRows         int
	rqaRowsPerBank  int
	fptTableRows    int // memory-mapped mode only
	rptTableRows    int
	tableRowsPerBnk int
}

// layoutFor computes the region layout for a configuration. cfg must
// already have defaults filled. It panics on configurations that cannot
// be laid out, since all callers construct configurations statically.
func layoutFor(geom dram.Geometry, timing dram.Timing, cfg Config) layout {
	rqa := cfg.RQARows
	if rqa == 0 {
		rqa = analytic.RQAParams{
			EffectiveThreshold: cfg.EffectiveThreshold(),
			Banks:              geom.Banks,
			Timing:             timing,
			LinesPerRow:        geom.LinesPerRow(),
		}.RMax()
	}
	if rqa < 1 {
		panic("core: RQA must have at least one row")
	}
	l := layout{rqaRows: rqa, rqaRowsPerBank: ceilDiv(rqa, geom.Banks)}
	if cfg.Mode == ModeMemMapped {
		fptBytes := geom.Rows() * 2
		rptBytes := rqa * 4
		l.fptTableRows = ceilDiv(fptBytes, geom.RowBytes)
		l.rptTableRows = ceilDiv(rptBytes, geom.RowBytes)
		l.tableRowsPerBnk = ceilDiv(l.fptTableRows+l.rptTableRows, geom.Banks)
	}
	if l.rqaRowsPerBank+l.tableRowsPerBnk >= geom.RowsPerBank {
		panic(fmt.Sprintf("core: reserved rows (%d RQA + %d table per bank) exceed bank size %d",
			l.rqaRowsPerBank, l.tableRowsPerBnk, geom.RowsPerBank))
	}
	return l
}

// VisibleRowsPerBankFor returns the software-visible rows per bank an
// engine with this configuration would leave, without building one: the
// layout arithmetic alone, not the tracker, presence-bit and filter state.
// An engine build per region query used to dominate experiment setup time.
func VisibleRowsPerBankFor(geom dram.Geometry, timing dram.Timing, cfg Config) int {
	cfg.fillDefaults()
	l := layoutFor(geom, timing, cfg)
	return geom.RowsPerBank - l.rqaRowsPerBank - l.tableRowsPerBnk
}

// New builds an AQUA engine bound to a rank. It panics on configurations
// that cannot be laid out (e.g. an RQA larger than memory), since all
// callers construct configurations statically.
func New(rank *dram.Rank, cfg Config) *Engine {
	cfg.fillDefaults()
	geom := rank.Geometry()
	timing := rank.Timing()

	l := layoutFor(geom, timing, cfg)
	e := &Engine{
		cfg:    cfg,
		rank:   rank,
		geom:   geom,
		layout: l,
		rpt:    make([]rptEntry, l.rqaRows),
	}
	for i := range e.rpt {
		e.rpt[i].epochUsed = -1
	}

	switch cfg.Mode {
	case ModeSRAM:
		e.present = make([]uint64, (geom.Rows()+63)/64)
	case ModeMemMapped:
		e.bloom = bloom.New(geom.Rows(), cfg.BloomGroupSize)
		e.fptCache = sramcache.New(cfg.FPTCacheEntries, fptCacheWays, cfg.BloomGroupSize)
	}

	e.chk = cfg.Invariants
	e.art = cfg.Tracker
	if e.art == nil {
		e.art = tracker.NewMisraGries(geom, cfg.EffectiveThreshold(),
			tracker.ProvisionEntries(timing, cfg.EffectiveThreshold()))
	}
	return e
}

// --- region layout -------------------------------------------------------

// slotRow returns the physical row of RQA slot s: slots stripe across
// banks, filling each bank's topmost rows downward, so concurrent attacks
// on all banks are absorbed by per-bank quarantine capacity.
func (e *Engine) slotRow(s int) dram.Row {
	bank := s % e.geom.Banks
	idx := e.geom.RowsPerBank - 1 - s/e.geom.Banks
	return e.geom.RowOf(bank, idx)
}

// rowSlot returns the RQA slot of a physical row, if it is one.
func (e *Engine) rowSlot(r dram.Row) (int, bool) {
	idx := e.geom.IndexOf(r)
	depth := e.geom.RowsPerBank - 1 - idx
	if depth < 0 || depth >= e.rqaRowsPerBank {
		return 0, false
	}
	s := depth*e.geom.Banks + e.geom.BankOf(r)
	if s >= e.rqaRows {
		return 0, false
	}
	return s, true
}

// tableRowAt returns the physical row of table-row index t (memory-mapped
// mode): table rows occupy the strip just below the RQA.
func (e *Engine) tableRowAt(t int) dram.Row {
	bank := t % e.geom.Banks
	idx := e.geom.RowsPerBank - e.rqaRowsPerBank - 1 - t/e.geom.Banks
	return e.geom.RowOf(bank, idx)
}

// isTableRow reports whether r holds FPT/RPT content; such rows have their
// FPT entries pinned in SRAM (Section VI-B).
func (e *Engine) isTableRow(r dram.Row) bool {
	if e.cfg.Mode != ModeMemMapped {
		return false
	}
	idx := e.geom.IndexOf(r)
	depth := e.geom.RowsPerBank - e.rqaRowsPerBank - 1 - idx
	if depth < 0 || depth >= e.tableRowsPerBnk {
		return false
	}
	t := depth*e.geom.Banks + e.geom.BankOf(r)
	return t < e.fptTableRows+e.rptTableRows
}

// fptTableRowFor returns the physical row holding install row x's FPT
// entry (2 bytes per entry).
func (e *Engine) fptTableRowFor(x dram.Row) dram.Row {
	return e.tableRowAt(int(x) * 2 / e.geom.RowBytes)
}

// rptTableRowFor returns the physical row holding slot s's RPT entry.
func (e *Engine) rptTableRowFor(s int) dram.Row {
	return e.tableRowAt(e.fptTableRows + s*4/e.geom.RowBytes)
}

// VisibleRowsPerBank returns the number of software-visible rows per bank
// (everything below the RQA and table strips).
func (e *Engine) VisibleRowsPerBank() int {
	return e.geom.RowsPerBank - e.rqaRowsPerBank - e.tableRowsPerBnk
}

// RQASize returns the number of quarantine slots.
func (e *Engine) RQASize() int { return e.rqaRows }

// IsQuarantined reports whether install row x currently lives in the RQA.
func (e *Engine) IsQuarantined(x dram.Row) bool { return e.fptSlot.Ref(x) != nil }

// physRow resolves install row x through the forward table: the row of
// its RQA slot when quarantined, x itself otherwise.
func (e *Engine) physRow(x dram.Row) dram.Row {
	if s, ok := e.fptSlot.Get(x); ok {
		return e.slotRow(int(s))
	}
	return x
}

// QuarantinedCount returns the number of currently quarantined rows.
func (e *Engine) QuarantinedCount() int {
	n := 0
	for _, s := range e.rpt {
		if s.valid {
			n++
		}
	}
	return n
}

// Tracker exposes the engine's ART (for tests).
func (e *Engine) Tracker() tracker.Tracker { return e.art }

// BloomFilter exposes the bloom filter in memory-mapped mode (nil in SRAM
// mode); used by tests and storage accounting.
func (e *Engine) BloomFilter() *bloom.Filter { return e.bloom }

// --- Mitigator implementation -------------------------------------------

// Name implements mitigation.Mitigator.
func (e *Engine) Name() string { return "aqua-" + e.cfg.Mode.String() }

// Translate implements mitigation.Mitigator: it resolves the current
// physical location of an install row, charging the lookup path of the
// configured mode (Figure 10's four categories in memory-mapped mode).
func (e *Engine) Translate(row dram.Row, now dram.PS) mitigation.Translation {
	if !e.geom.Contains(row) {
		panic(fmt.Sprintf("core: translate of row %d outside geometry", row))
	}
	if e.geom.IndexOf(row) >= e.VisibleRowsPerBank() {
		// The reserved strip at the top of the bank: RQA slots, then (in
		// memory-mapped mode) the rows holding AQUA's own tables, which
		// resolve from pinned SRAM entries.
		if _, isSlot := e.rowSlot(row); isSlot {
			panic(fmt.Sprintf("core: translate of RQA row %d (software must not address the RQA)", row))
		}
		if e.isTableRow(row) {
			e.stats.Lookups[mitigation.LookupPinned]++
			return mitigation.Translation{PhysRow: e.physRow(row), Latency: mitigation.SRAMLatency, Class: mitigation.LookupPinned}
		}
	}

	if e.cfg.Mode == ModeSRAM {
		phys := row
		if e.present[row>>6]&(1<<(row&63)) != 0 {
			phys = e.physRow(row)
		}
		e.stats.Lookups[mitigation.LookupSRAM]++
		return mitigation.Translation{PhysRow: phys, Latency: mitigation.SRAMLatency, Class: mitigation.LookupSRAM}
	}

	// Memory-mapped lookup path.
	lat := bloomLatency
	if !e.bloom.MightContain(uint32(row)) {
		e.stats.Lookups[mitigation.LookupBloomFiltered]++
		return mitigation.Translation{PhysRow: row, Latency: lat, Class: mitigation.LookupBloomFiltered}
	}
	lat += cacheLatency
	if slot, hit := e.fptCache.Lookup(uint32(row)); hit {
		e.stats.Lookups[mitigation.LookupCacheHit]++
		return mitigation.Translation{PhysRow: e.slotRow(int(slot)), Latency: lat, Class: mitigation.LookupCacheHit}
	}
	// Second same-set probe: singleton filtering (Section V-D).
	lat += cacheLatency
	if e.fptCache.ProbeGroupSingleton(uint32(row)) {
		e.stats.Lookups[mitigation.LookupSingleton]++
		return mitigation.Translation{PhysRow: row, Latency: lat, Class: mitigation.LookupSingleton}
	}
	// Walk to the in-DRAM FPT: a real DRAM access on the critical path.
	done := e.tableAccess(e.fptTableRowFor(row), false, now+lat)
	lat = done - now
	e.stats.Lookups[mitigation.LookupDRAM]++
	if s, ok := e.fptSlot.Get(row); ok {
		e.fptCache.Insert(uint32(row), uint16(s), e.bloom.GroupOccupancy(uint32(row)) == 1)
		return mitigation.Translation{PhysRow: e.slotRow(int(s)), Latency: lat, Class: mitigation.LookupDRAM}
	}
	return mitigation.Translation{PhysRow: row, Latency: lat, Class: mitigation.LookupDRAM}
}

// tableAccess performs one line access to an engine table row, resolving
// the (pinned) indirection for the table row itself. An activation it
// causes reaches the tracker through the controller's feed, like any
// other.
func (e *Engine) tableAccess(tr dram.Row, write bool, at dram.PS) dram.PS {
	e.stats.TableDRAMAccesses++
	return e.rank.Access(e.physRow(tr), write, at)
}

// Delay implements mitigation.Mitigator; AQUA never throttles accesses.
func (e *Engine) Delay(_ dram.Row, now dram.PS) dram.PS { return now }

// OnActivate implements mitigation.Mitigator: the tracker counts the
// activation and, when it crosses a multiple of T_RH/2, the row is
// quarantined. The controller calls it for the ACTs of the engine's own
// migrations and table walks too, so those count like demand ACTs.
func (e *Engine) OnActivate(physRow dram.Row, at dram.PS) dram.PS {
	if e.art.RecordACT(physRow) {
		return e.mitigate(physRow, at)
	}
	return 0
}

// mitigate quarantines the aggressor at physRow (Section IV-D) and returns
// the channel time consumed.
func (e *Engine) mitigate(physRow dram.Row, at dram.PS) dram.PS {
	// Identify the install row X and the source of the copy.
	var install dram.Row
	src := physRow
	srcSlot := -1
	if slot, isSlot := e.rowSlot(physRow); isSlot {
		if !e.rpt[slot].valid {
			// Stale activity on an empty slot (e.g. an eviction's write);
			// nothing to quarantine.
			return 0
		}
		install = e.rpt[slot].install
		// The hammered slot is retired for the rest of this epoch.
		e.rpt[slot].valid = false
		e.rpt[slot].epochUsed = e.epoch
		e.quarCount--
		srcSlot = slot
	} else {
		if e.IsQuarantined(physRow) {
			// The original location of an already-quarantined row (its
			// only ACTs come from evictions); demand accesses are routed
			// to the RQA, so no action is needed here.
			return 0
		}
		install = physRow
	}

	e.stats.Mitigations++
	t := at

	// Claim the next RQA slot (circular buffer head). A slot used in the
	// current epoch — including the slot the aggressor is migrating *out
	// of* — must not be reused: it has absorbed activations this epoch,
	// and reinstalling there would let the attacker keep accumulating on
	// one physical row. With Equation 3 sizing the head never reaches a
	// same-epoch slot; the bounded scan makes the guarantee structural,
	// and an undersized RQA surfaces as a ReuseViolations count.
	d := e.head
	for scanned := 0; scanned < e.rqaRows && e.rpt[d].epochUsed == e.epoch; scanned++ {
		d = (d + 1) % e.rqaRows
	}
	if e.rpt[d].epochUsed == e.epoch {
		// Every slot was used this epoch: the RQA is undersized. Even so,
		// never self-copy into the slot the row is leaving.
		e.stats.ReuseViolations++
		if d == srcSlot && e.rqaRows > 1 {
			d = (d + 1) % e.rqaRows
		}
	}
	e.head = (d + 1) % e.rqaRows

	// Evict a stale occupant from a previous epoch back to its original
	// location (lazy drain, Section IV-A).
	if e.rpt[d].valid {
		t = e.evict(d, t)
	}

	// Copy the aggressor into the quarantine slot.
	t = e.streamPair(src, e.slotRow(d), t)
	e.stats.RowMigrations++

	// Update FPT and RPT.
	wasQuarantined := e.IsQuarantined(install)
	e.fptSlot.Set(install, int32(d))
	e.rpt[d] = rptEntry{install: install, valid: true, epochUsed: e.epoch}
	e.quarCount++

	switch e.cfg.Mode {
	case ModeSRAM:
		e.present[install>>6] |= 1 << (install & 63)
	case ModeMemMapped:
		if !wasQuarantined && !e.isTableRow(install) {
			occBefore := e.bloom.GroupOccupancy(uint32(install))
			e.bloom.Add(uint32(install))
			if occBefore == 1 {
				// The group just stopped being a singleton.
				e.fptCache.SetGroupSingleton(uint32(install), false)
			}
			e.fptCache.Insert(uint32(install), uint16(d), occBefore == 0)
		} else if wasQuarantined && !e.isTableRow(install) {
			e.fptCache.Insert(uint32(install), uint16(d), e.bloom.GroupOccupancy(uint32(install)) == 1)
		}
		// Table maintenance traffic: FPT entry write and RPT entry write.
		t = e.tableAccess(e.fptTableRowFor(install), true, t)
		t = e.tableAccess(e.rptTableRowFor(d), true, t)
	}

	if e.chk != nil {
		// O(1) structural checks on the slot just written; the full-table
		// sweep runs at epoch boundaries.
		s, _ := e.fptSlot.Get(install)
		e.chk.Checkf(s == int32(d) && e.rpt[d].valid && e.rpt[d].install == install,
			"core", "fpt-rpt-bijection", t,
			"install row %d and slot %d disagree after quarantine", install, d)
		e.chk.Checkf(e.quarCount <= e.rqaRows, "core", "rqa-occupancy", t,
			"%d quarantined rows exceed RQA capacity %d", e.quarCount, e.rqaRows)
	}

	// The channel is reserved until the migration completes (Section IV-G).
	e.rank.Reserve(t)
	busy := t - at
	e.stats.ChannelBusy += busy
	return busy
}

// streamPair copies one row through the copy buffer: a full-row read from
// src followed by a full-row write to dst (~1.37us).
func (e *Engine) streamPair(src, dst dram.Row, at dram.PS) dram.PS {
	t := e.rank.StreamRow(src, false, at)
	t = e.rank.StreamRow(dst, true, t)
	if e.chk != nil {
		e.chk.Checkf(t >= at+e.rank.Timing().MigrationTime(e.geom.LinesPerRow()),
			"core", "migration-complete", t,
			"migration %d -> %d finished at %dps, before one full copy could", src, dst, t)
	}
	return t
}

// evict copies slot d's occupant back to its install row starting at
// `at`, removes its mapping and frees the slot; it returns when the copy
// completes. mitigate calls it on a stale destination slot (lazy drain),
// OnIdle on a stale slot it sweeps (proactive drain).
func (e *Engine) evict(d int, at dram.PS) dram.PS {
	old := e.rpt[d].install
	t := e.streamPair(e.slotRow(d), old, at)
	e.clearMapping(old, t)
	e.rpt[d].valid = false
	e.quarCount--
	e.stats.Evictions++
	e.stats.RowMigrations++
	return t
}

// clearMapping removes install row old from all mapping structures after
// its eviction completes at time t.
func (e *Engine) clearMapping(old dram.Row, t dram.PS) {
	e.fptSlot.Delete(old)
	switch e.cfg.Mode {
	case ModeSRAM:
		e.present[old>>6] &^= 1 << (old & 63)
	case ModeMemMapped:
		if !e.isTableRow(old) {
			e.fptCache.Invalidate(uint32(old))
			e.bloom.Remove(uint32(old))
			if e.bloom.GroupOccupancy(uint32(old)) == 1 {
				// Back to a singleton group: set the bit on the remaining
				// resident member, if cached.
				e.fptCache.SetGroupSingleton(uint32(old), true)
			}
		}
		// Writing the invalidation back to the in-DRAM FPT.
		_ = e.tableAccess(e.fptTableRowFor(old), true, t)
	}
}

// OnEpoch implements mitigation.Mitigator: the tracker resets every
// refresh interval; FPT/RPT drain lazily (Section IV-A). Under the
// invariant checker, the engine's structures and a Misra-Gries tracker's
// tables are audited first.
func (e *Engine) OnEpoch(now dram.PS) {
	if e.chk != nil {
		// Full structural sweep at the epoch boundary, reported through the
		// checker rather than panicking mid-simulation.
		if err := e.CheckInvariants(); err != nil {
			e.chk.Reportf("core", "structural", now, "%v", err)
		}
		e.chk.Checkf(e.quarCount == e.QuarantinedCount(), "core", "occupancy-count", now,
			"incremental occupancy %d disagrees with RPT scan %d", e.quarCount, e.QuarantinedCount())
		// The tracker's tables are audited before the reset clears them.
		if mg, ok := e.art.(*tracker.MisraGries); ok {
			if err := mg.CheckConsistency(); err != nil {
				e.chk.Reportf("core", "tracker-consistency", now, "%v", err)
			}
		}
		if e.cfg.ProactiveDrain && e.drainRemaining == 0 {
			// A completed drain sweep must leave no quarantined row from an
			// earlier epoch: entries installed after their slot was swept
			// all carry the current epoch.
			for s, ent := range e.rpt {
				if ent.valid && ent.epochUsed < e.epoch {
					e.chk.Reportf("core", "stale-after-drain", now,
						"slot %d still holds row %d from epoch %d after a completed drain sweep",
						s, ent.install, ent.epochUsed)
				}
			}
		}
	}
	e.art.Reset()
	e.epoch++
	if e.cfg.ProactiveDrain {
		// Entries from earlier epochs are now stale: restart the sweep.
		e.drainCursor = 0
		e.drainRemaining = e.rqaRows
	}
}

// OnIdle implements mitigation.Drainer: when the channel is idle and
// proactive draining is enabled, evict one stale quarantine entry
// (Section IV-D: "the latency for moving out a row from the RQA can be
// removed from the critical path by periodically draining old entries").
// A persistent cursor sweeps the RQA so every stale entry is eventually
// restored to its original location; per call, at most drainLookahead
// slots are scanned and at most one eviction is performed. Returns the
// eviction's channel time (0 if there was nothing to drain).
func (e *Engine) OnIdle(now dram.PS) dram.PS {
	if !e.cfg.ProactiveDrain || e.drainRemaining == 0 {
		return 0
	}
	look := drainLookahead
	if look > e.drainRemaining {
		look = e.drainRemaining
	}
	for i := 0; i < look; i++ {
		d := e.drainCursor
		e.drainCursor = (e.drainCursor + 1) % e.rqaRows
		e.drainRemaining--
		if ent := e.rpt[d]; !ent.valid || ent.epochUsed >= e.epoch {
			continue
		}
		t := e.evict(d, now)
		e.stats.ProactiveDrains++
		e.rank.Reserve(t)
		busy := t - now
		e.stats.ChannelBusy += busy
		return busy
	}
	return 0
}

// Stats implements mitigation.Mitigator.
func (e *Engine) Stats() mitigation.Stats { return e.stats }

// CheckInvariants validates the engine's structural invariants; tests call
// it after arbitrary operation sequences:
//
//   - forward/backward consistency: fptSlot[x] = s implies rpt[s] is valid
//     and points back to x, and vice versa;
//   - no two install rows share an RQA slot;
//   - in SRAM mode, the presence bits mark exactly fptSlot's rows;
//   - in memory-mapped mode, the bloom filter's per-group occupancy equals
//     the number of quarantined (non-table) rows in that group, and every
//     quarantined row tests positive.
func (e *Engine) CheckInvariants() error {
	var err error
	e.fptSlot.Range(func(x dram.Row, s int32) bool {
		switch {
		case s < 0 || int(s) >= len(e.rpt):
			err = fmt.Errorf("core: fptSlot[%d] = %d out of RQA range", x, s)
		case !e.rpt[s].valid:
			err = fmt.Errorf("core: fptSlot[%d] = %d but slot invalid", x, s)
		case e.rpt[s].install != x:
			err = fmt.Errorf("core: slot %d holds %d, expected %d", s, e.rpt[s].install, x)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	valid := 0
	for s, ent := range e.rpt {
		if !ent.valid {
			continue
		}
		valid++
		if got, ok := e.fptSlot.Get(ent.install); !ok || got != int32(s) {
			return fmt.Errorf("core: slot %d points to %d whose fptSlot is %d (present %v)",
				s, ent.install, got, ok)
		}
	}
	if quarantined := e.fptSlot.Len(); quarantined != valid {
		return fmt.Errorf("core: %d forward pointers vs %d valid slots", quarantined, valid)
	}
	if e.cfg.Mode == ModeSRAM {
		// Every forward entry's bit is set, and the set bits number the
		// entries, so no other bit is: O(rows/64 + entries).
		marked := 0
		for _, w := range e.present {
			marked += bits.OnesCount64(w)
		}
		if marked != valid {
			return fmt.Errorf("core: %d presence bits set vs %d forward pointers", marked, valid)
		}
		e.fptSlot.Range(func(x dram.Row, _ int32) bool {
			if e.present[x>>6]&(1<<(x&63)) == 0 {
				err = fmt.Errorf("core: quarantined row %d has no presence bit", x)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	if e.cfg.Mode == ModeMemMapped {
		occ := make(map[uint32]int)
		e.fptSlot.Range(func(x dram.Row, _ int32) bool {
			if e.isTableRow(x) {
				return true
			}
			occ[e.bloom.GroupOf(uint32(x))]++
			if !e.bloom.MightContain(uint32(x)) {
				err = fmt.Errorf("core: quarantined row %d tests negative in bloom", x)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
		for g, n := range occ {
			row := g * uint32(e.bloom.GroupSize())
			if got := e.bloom.GroupOccupancy(row); got != n {
				return fmt.Errorf("core: group %d occupancy %d, expected %d", g, got, n)
			}
		}
	}
	return nil
}

// --- helpers -------------------------------------------------------------

func ceilDiv(a, b int) int { return (a + b - 1) / b }
