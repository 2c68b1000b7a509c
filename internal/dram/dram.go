// Package dram models a DDR4 rank at transaction level: bank state machines
// with open-page row buffers, the timing constraints that matter for
// Rowhammer arithmetic (tRC, tRCD, tCL, tRP, tCCD, tRFC, tREFI, tREFW), and
// activation listeners through which the memory controller's mitigation
// feed and the security monitor observe every row activation, plus refresh
// listeners that observe the targeted row refreshes a mitigation issues.
//
// The model reproduces the latency arithmetic the AQUA paper relies on:
// streaming one 8KB row takes tRC + 127*tCCD_L ~= 680ns, so a quarantine
// migration (one row read + one row write) occupies the channel for ~1.37us,
// and the refresh budget bounds a bank to ACTmax ~= 1360K activations per
// 64ms refresh window.
package dram

import (
	"fmt"
	"math/bits"

	"repro/internal/invariant"
)

// PS is simulated time in picoseconds. Picosecond resolution represents
// the fractional-nanosecond DDR4 parameters (e.g. tRCD = 14.2ns) exactly
// while an int64 still spans ~106 days of simulated time.
type PS = int64

// Time unit helpers.
const (
	Nanosecond  PS = 1000
	Microsecond PS = 1000 * Nanosecond
	Millisecond PS = 1000 * Microsecond
)

// Timing holds the DDR4 timing parameters. All values are in picoseconds.
type Timing struct {
	TRC   PS // ACT-to-ACT delay within a bank (row cycle time)
	TRCD  PS // ACT to column command
	TCL   PS // column command to first data
	TRP   PS // precharge latency
	TCCDS PS // column-to-column, different bank group
	TCCDL PS // column-to-column, same bank group (streaming rate)
	TBL   PS // burst transfer time for one 64B line on the data bus
	TRFC  PS // refresh cycle time (channel blocked per refresh command)
	TREFI PS // refresh command interval
	TREFW PS // refresh window: every row refreshed once per TREFW
	TWR   PS // write recovery before precharge
	TFAW  PS // four-activate window: at most 4 ACTs per rank per tFAW
}

// DDR4 returns the DDR4-2400 timing used by the paper's baseline system
// (Table I: tRCD-tCL-tRP-tRC = 14.2-14.2-14.2-45 ns, tCCD_S/L = 3.3/5 ns).
func DDR4() Timing {
	return Timing{
		TRC:   45 * Nanosecond,
		TRCD:  14200, // 14.2 ns
		TCL:   14200,
		TRP:   14200,
		TCCDS: 3300, // 3.3 ns
		TCCDL: 5 * Nanosecond,
		TBL:   3300, // 8 beats at 2400 MT/s ~= 3.33 ns
		TRFC:  350 * Nanosecond,
		TREFI: 7800 * Nanosecond, // 7.8 us
		TREFW: 64 * Millisecond,
		TWR:   15 * Nanosecond,
		TFAW:  21 * Nanosecond,
	}
}

// Validate reports an error if any parameter is non-positive or internally
// inconsistent.
func (t Timing) Validate() error {
	type named struct {
		name string
		v    PS
	}
	for _, p := range []named{
		{"tRC", t.TRC}, {"tRCD", t.TRCD}, {"tCL", t.TCL}, {"tRP", t.TRP},
		{"tCCD_S", t.TCCDS}, {"tCCD_L", t.TCCDL}, {"tBL", t.TBL},
		{"tRFC", t.TRFC}, {"tREFI", t.TREFI}, {"tREFW", t.TREFW}, {"tWR", t.TWR},
		{"tFAW", t.TFAW},
	} {
		if p.v <= 0 {
			return fmt.Errorf("dram: %s must be positive, got %d", p.name, p.v)
		}
	}
	if t.TRC < t.TRCD+t.TRP {
		return fmt.Errorf("dram: tRC (%d) < tRCD+tRP (%d)", t.TRC, t.TRCD+t.TRP)
	}
	if t.TREFI <= t.TRFC {
		return fmt.Errorf("dram: tREFI (%d) <= tRFC (%d)", t.TREFI, t.TRFC)
	}
	if t.TREFW <= t.TREFI {
		return fmt.Errorf("dram: tREFW (%d) <= tREFI (%d)", t.TREFW, t.TREFI)
	}
	return nil
}

// RowTransferTime returns the channel-busy time to stream an entire row of
// linesPerRow cache lines between DRAM and the controller's copy buffer:
// one activation (tRC) plus back-to-back column accesses at the tCCD_L
// rate. For the baseline 8KB row (128 lines) this is 45ns + 128*5ns =
// 685ns, exactly the paper's figure (Section IV-D), which makes the RQA
// sizing of Table III reproduce bit-for-bit.
func (t Timing) RowTransferTime(linesPerRow int) PS {
	if linesPerRow < 1 {
		panic("dram: RowTransferTime requires at least one line")
	}
	return t.TRC + PS(linesPerRow)*t.TCCDL
}

// MigrationTime returns the channel-busy time to migrate one row: one full
// row read into the copy buffer plus one full row write out (~1.37us for
// the baseline configuration).
func (t Timing) MigrationTime(linesPerRow int) PS {
	return 2 * t.RowTransferTime(linesPerRow)
}

// ACTMax returns the maximum number of activations an attacker can issue to
// a single bank within one refresh window, accounting for the bandwidth
// consumed by refresh commands: tREFW * (1 - tRFC/tREFI) / tRC. For the
// baseline timing this is ~1.36M activations (Section II-B).
func (t Timing) ACTMax() int64 {
	avail := float64(t.TREFW) * (1 - float64(t.TRFC)/float64(t.TREFI))
	return int64(avail / float64(t.TRC))
}

// Geometry describes one rank: the unit AQUA's structures are provisioned
// for.
type Geometry struct {
	Banks       int // banks per rank
	RowsPerBank int
	RowBytes    int // row (page) size in bytes
	LineBytes   int // cache-line transfer granularity
}

// Baseline returns the paper's baseline rank: 16 banks x 128K rows x 8KB
// rows = 16GB, 64B lines (Table I).
func Baseline() Geometry {
	return Geometry{Banks: 16, RowsPerBank: 128 * 1024, RowBytes: 8192, LineBytes: 64}
}

// Validate reports an error for degenerate geometries.
func (g Geometry) Validate() error {
	if g.Banks < 1 || g.RowsPerBank < 1 {
		return fmt.Errorf("dram: need at least one bank and row, got %dx%d", g.Banks, g.RowsPerBank)
	}
	if g.RowBytes < g.LineBytes || g.LineBytes < 1 {
		return fmt.Errorf("dram: invalid row/line bytes %d/%d", g.RowBytes, g.LineBytes)
	}
	if g.RowBytes%g.LineBytes != 0 {
		return fmt.Errorf("dram: row bytes %d not a multiple of line bytes %d", g.RowBytes, g.LineBytes)
	}
	return nil
}

// Rows returns the total number of rows in the rank.
func (g Geometry) Rows() int { return g.Banks * g.RowsPerBank }

// LinesPerRow returns the number of cache lines per row.
func (g Geometry) LinesPerRow() int { return g.RowBytes / g.LineBytes }

// CapacityBytes returns the rank capacity in bytes.
func (g Geometry) CapacityBytes() int64 {
	return int64(g.Rows()) * int64(g.RowBytes)
}

// Row identifies a physical DRAM row within the rank as a flat index:
// bank * RowsPerBank + rowInBank. The flat form is what AQUA's FPT and RPT
// store (a 21-bit pointer for the 2M-row baseline).
type Row uint32

// InvalidRow is a sentinel for "no row".
const InvalidRow Row = ^Row(0)

// RowOf builds a Row from bank and in-bank index.
func (g Geometry) RowOf(bank, index int) Row {
	if bank < 0 || bank >= g.Banks || index < 0 || index >= g.RowsPerBank {
		panic(fmt.Sprintf("dram: row (%d,%d) outside geometry %dx%d", bank, index, g.Banks, g.RowsPerBank))
	}
	return Row(bank*g.RowsPerBank + index)
}

// BankOf returns the bank holding row r. Row decomposition runs on every
// access and tracker update, so the power-of-two geometry the paper uses
// (128K rows/bank) takes a shift instead of a 64-bit division.
func (g Geometry) BankOf(r Row) int {
	if n := g.RowsPerBank; n&(n-1) == 0 {
		return int(r) >> uint(bits.TrailingZeros(uint(n)))
	}
	return int(r) / g.RowsPerBank
}

// IndexOf returns r's index within its bank.
func (g Geometry) IndexOf(r Row) int {
	if n := g.RowsPerBank; n&(n-1) == 0 {
		return int(r) & (n - 1)
	}
	return int(r) % g.RowsPerBank
}

// Contains reports whether r is a valid row in this geometry.
func (g Geometry) Contains(r Row) bool { return int(r) < g.Rows() }

// Neighbors returns the rows at the given distance on either side of r in
// the same bank (used by victim refresh and Half-Double). Rows at bank
// edges may have fewer neighbors. It allocates; hot callers use
// NeighborPair.
func (g Geometry) Neighbors(r Row, distance int) []Row {
	pair, n := g.NeighborPair(r, distance)
	out := make([]Row, n)
	copy(out, pair[:n])
	return out
}

// NeighborPair is the allocation-free form of Neighbors: it returns the
// (up to two) neighbor rows in a fixed array plus the valid count. The
// below-neighbor, when present, is always pair[0].
func (g Geometry) NeighborPair(r Row, distance int) (pair [2]Row, n int) {
	if distance < 1 {
		panic("dram: neighbor distance must be >= 1")
	}
	bank := g.BankOf(r)
	idx := g.IndexOf(r)
	if idx-distance >= 0 {
		pair[n] = g.RowOf(bank, idx-distance)
		n++
	}
	if idx+distance < g.RowsPerBank {
		pair[n] = g.RowOf(bank, idx+distance)
		n++
	}
	return pair, n
}

// ActListener observes every row activation as it is committed to a bank.
// The memory controller's mitigation feed and the security monitor
// register here. The row reported is the physical row that was opened.
type ActListener func(row Row, at PS)

// bank holds the open-page state machine for one bank.
type bank struct {
	openRow  Row // InvalidRow while the bank is precharged
	readyACT PS  // earliest next activation (tRC from previous ACT)
	readyCol PS  // earliest next column command in this bank
	readyPRE PS  // earliest precharge (covers tRAS/tWR approximations)
}

// Rank models all banks of one rank plus the shared data bus. It is not
// safe for concurrent use; the simulator is single-threaded by design.
type Rank struct {
	geom   Geometry
	timing Timing

	banks   []bank
	busFree PS // data bus availability
	// actHist holds the last four rank-level ACT times (tFAW enforcement).
	actHist [4]PS
	actIdx  int

	listeners []ActListener

	// reservedUntil is the end of the latest channel reservation
	// (monotonic); the memory controller's invariant hook checks accesses
	// against it.
	reservedUntil PS

	// chk, when non-nil, enables the timing-invariant shadow checker: a
	// second, independent derivation of the per-bank timing windows from
	// the reference timing `ref`, verified against every committed
	// command. Release-mode simulation leaves chk nil and pays one
	// pointer test per command.
	chk    *invariant.Checker
	ref    Timing
	shadow *timingShadow

	stats RankStats

	// refreshListeners observe targeted row refreshes (NotifyRefresh);
	// activation listeners never see them. Last in the struct so the
	// per-access fields keep their offsets.
	refreshListeners []ActListener
}

// timingShadow holds the invariant checker's independent view of bank
// state, deliberately separate from the scheduling fields so a bug in
// one cannot hide in the other.
type timingShadow struct {
	banks      []bankShadow
	ring       [4]PS // last four rank-level ACT commits (tFAW)
	ringIdx    int
	ringN      int
	refreshEnd PS
}

type bankShadow struct {
	lastACT PS
	hasACT  bool
	lastPRE PS // PRE issue time; the next ACT must wait tRP after it
	hasPRE  bool
}

// RankStats aggregates activity counters for reporting.
type RankStats struct {
	Reads      int64
	Writes     int64
	Activates  int64
	RowHits    int64
	RowMisses  int64
	Refreshes  int64
	RowStreams int64 // full-row transfers (migrations)
}

// NewRank builds a rank; it panics on invalid configuration since every
// caller constructs configurations statically.
func NewRank(g Geometry, t Timing) *Rank {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	if err := t.Validate(); err != nil {
		panic(err)
	}
	r := &Rank{
		geom:   g,
		timing: t,
		banks:  make([]bank, g.Banks),
	}
	for i := range r.banks {
		r.banks[i].openRow = InvalidRow
	}
	for i := range r.actHist {
		// Pre-age the window so the first four activations are unhindered.
		r.actHist[i] = -t.TFAW
	}
	return r
}

// Geometry returns the rank geometry.
func (r *Rank) Geometry() Geometry { return r.geom }

// Timing returns the rank timing.
func (r *Rank) Timing() Timing { return r.timing }

// Stats returns a copy of the activity counters.
func (r *Rank) Stats() RankStats { return r.stats }

// Listen registers an activation listener. Listeners run synchronously in
// registration order on every committed ACT.
func (r *Rank) Listen(l ActListener) {
	r.listeners = append(r.listeners, l)
}

// ListenRefresh registers a listener for the targeted row refreshes a
// mitigation reports through NotifyRefresh (victim refresh's neighbour
// refreshes). Activation listeners are not called for them.
func (r *Rank) ListenRefresh(l ActListener) {
	r.refreshListeners = append(r.refreshListeners, l)
}

// NotifyRefresh reports that a mitigation refreshed row at time at. It
// only notifies the refresh listeners: the refresh's bank time is the
// caller's to charge (victim refresh reserves one tRC per row), and it
// counts in no RankStats field.
func (r *Rank) NotifyRefresh(row Row, at PS) {
	for _, l := range r.refreshListeners {
		l(row, at)
	}
}

// EnableInvariants installs the timing-invariant shadow checker. Every
// committed command is verified against the windows derived from `ref` —
// normally the rank's own timing, but tests may pass a stricter
// reference to prove the checker fires (e.g. a rank mis-configured with
// a too-short tRP checked against real DDR4).
func (r *Rank) EnableInvariants(c *invariant.Checker, ref Timing) {
	r.chk = c
	r.ref = ref
	r.shadow = &timingShadow{banks: make([]bankShadow, r.geom.Banks)}
}

// InvariantsEnabled reports whether a shadow checker is installed.
func (r *Rank) InvariantsEnabled() bool { return r.chk != nil }

// checkACT verifies one committed ACT against the reference timing
// windows and updates the shadow state.
func (r *Rank) checkACT(bank int, at PS) {
	s := r.shadow
	bs := &s.banks[bank]
	if bs.hasACT {
		r.chk.Checkf(at >= bs.lastACT+r.ref.TRC, "dram", "tRC", at,
			"bank %d: ACT only %dps after previous ACT (tRC=%dps)", bank, at-bs.lastACT, r.ref.TRC)
	}
	if bs.hasPRE {
		r.chk.Checkf(at >= bs.lastPRE+r.ref.TRP, "dram", "tRP", at,
			"bank %d: ACT only %dps after PRE (tRP=%dps)", bank, at-bs.lastPRE, r.ref.TRP)
	}
	r.chk.Checkf(at >= s.refreshEnd, "dram", "tRFC", at,
		"bank %d: ACT during refresh window ending %dps", bank, s.refreshEnd)
	if s.ringN >= len(s.ring) {
		oldest := s.ring[s.ringIdx]
		r.chk.Checkf(at >= oldest+r.ref.TFAW, "dram", "tFAW", at,
			"fifth ACT only %dps after the fourth-previous (tFAW=%dps)", at-oldest, r.ref.TFAW)
	}
	s.ring[s.ringIdx] = at
	s.ringIdx = (s.ringIdx + 1) % len(s.ring)
	if s.ringN < len(s.ring) {
		s.ringN++
	}
	bs.lastACT = at
	bs.hasACT = true
}

// notePRE records a precharge issue for the tRP shadow check.
func (r *Rank) notePRE(bank int, at PS) {
	bs := &r.shadow.banks[bank]
	bs.lastPRE = at
	bs.hasPRE = true
}

// checkCol verifies a column command against tRCD from the bank's last
// activation.
func (r *Rank) checkCol(bank int, at PS) {
	bs := &r.shadow.banks[bank]
	if bs.hasACT {
		r.chk.Checkf(at >= bs.lastACT+r.ref.TRCD, "dram", "tRCD", at,
			"bank %d: column command only %dps after ACT (tRCD=%dps)", bank, at-bs.lastACT, r.ref.TRCD)
	}
}

// fawReady returns the earliest time a new ACT may issue under the
// four-activate-window constraint given a candidate time.
func (r *Rank) fawReady(at PS) PS {
	if earliest := r.actHist[r.actIdx] + r.timing.TFAW; earliest > at {
		return earliest
	}
	return at
}

// activate commits an ACT to row at time 'at' and notifies listeners.
// Callers must have applied fawReady to 'at'.
func (r *Rank) activate(b *bank, row Row, at PS) {
	if r.chk != nil {
		r.checkACT(r.geom.BankOf(row), at)
	}
	r.actHist[r.actIdx] = at
	r.actIdx = (r.actIdx + 1) % len(r.actHist)
	b.openRow = row
	b.readyACT = at + r.timing.TRC
	b.readyCol = at + r.timing.TRCD
	b.readyPRE = at + r.timing.TRCD // simplified tRAS floor
	r.stats.Activates++
	for _, l := range r.listeners {
		l(row, at)
	}
}

// Access performs one cache-line read or write to the given physical row.
// 'earliest' is the first time the command may be considered (request
// arrival or channel-reservation end). It returns the time at which the
// data transfer completes; an activation it causes reaches the listeners.
func (r *Rank) Access(row Row, write bool, earliest PS) (done PS) {
	if !r.geom.Contains(row) {
		panic(fmt.Sprintf("dram: access to row %d outside geometry", row))
	}
	bankIdx := r.geom.BankOf(row)
	b := &r.banks[bankIdx]
	t := &r.timing

	at := earliest
	if b.openRow == row {
		// Row-buffer hit: column access only.
		r.stats.RowHits++
		col := maxPS(at, b.readyCol)
		if r.chk != nil {
			r.checkCol(bankIdx, col)
		}
		data := maxPS(col+t.TCL, r.busFree)
		r.busFree = data + t.TBL
		b.readyCol = col + t.TCCDL
		b.readyPRE = maxPS(b.readyPRE, data+t.TBL)
		done = data + t.TBL
	} else {
		// Row-buffer miss (or closed row): PRE if needed, then ACT, then column.
		r.stats.RowMisses++
		start := at
		if b.openRow != InvalidRow {
			pre := maxPS(start, b.readyPRE)
			if r.chk != nil {
				r.notePRE(bankIdx, pre)
			}
			start = pre + t.TRP
		}
		act := r.fawReady(maxPS(start, b.readyACT))
		r.activate(b, row, act)
		data := maxPS(act+t.TRCD+t.TCL, r.busFree)
		r.busFree = data + t.TBL
		b.readyCol = act + t.TRCD + t.TCCDL
		done = data + t.TBL
	}
	if write {
		r.stats.Writes++
		b.readyPRE = maxPS(b.readyPRE, done+t.TWR)
	} else {
		r.stats.Reads++
	}
	return done
}

// StreamRow models a full-row transfer between DRAM and the controller's
// copy buffer (the unit step of a migration): one activation followed by
// back-to-back column accesses. It occupies the bank and data bus until
// completion and returns the completion time.
func (r *Rank) StreamRow(row Row, write bool, earliest PS) (done PS) {
	if !r.geom.Contains(row) {
		panic(fmt.Sprintf("dram: stream of row %d outside geometry", row))
	}
	bankIdx := r.geom.BankOf(row)
	b := &r.banks[bankIdx]
	t := &r.timing
	start := earliest
	if b.openRow != InvalidRow {
		pre := maxPS(start, b.readyPRE)
		if r.chk != nil {
			r.notePRE(bankIdx, pre)
		}
		start = pre + t.TRP
	}
	act := maxPS(start, b.readyACT)
	act = maxPS(act, r.busFree) // streaming saturates the bus; serialize
	act = r.fawReady(act)
	r.activate(b, row, act)
	// RowTransferTime includes the activation (tRC) plus the column
	// stream; completion is act + stream duration.
	done = act + t.RowTransferTime(r.geom.LinesPerRow())
	r.busFree = done
	b.readyCol = done
	b.readyPRE = done
	if write {
		b.readyPRE += t.TWR
	}
	r.stats.RowStreams++
	if write {
		r.stats.Writes += int64(r.geom.LinesPerRow())
	} else {
		r.stats.Reads += int64(r.geom.LinesPerRow())
	}
	return done
}

// RefreshAll models one auto-refresh command issued at 'at': every bank's
// row is closed and the rank is unavailable until at+tRFC. Refresh restores
// charge; it does not reset the Rowhammer activation counters (refresh of
// a *victim* row does, which is the victim-refresh mitigation's job, not
// the periodic refresh's).
func (r *Rank) RefreshAll(at PS) (done PS) {
	done = at + r.timing.TRFC
	for i := range r.banks {
		b := &r.banks[i]
		b.openRow = InvalidRow
		if b.readyACT < done {
			b.readyACT = done
		}
	}
	if r.busFree < done {
		r.busFree = done
	}
	if r.chk != nil {
		r.shadow.refreshEnd = done
	}
	r.stats.Refreshes++
	return done
}

// Reserve blocks the whole rank (all banks and the bus) until the given
// time; the memory controller uses this to model channel reservation during
// multi-row migration sequences.
func (r *Rank) Reserve(until PS) {
	if until > r.reservedUntil {
		r.reservedUntil = until
	}
	for i := range r.banks {
		if r.banks[i].readyACT < until {
			r.banks[i].readyACT = until
		}
		if r.banks[i].readyCol < until {
			r.banks[i].readyCol = until
		}
	}
	if r.busFree < until {
		r.busFree = until
	}
}

// ReservedUntil returns the end of the latest channel reservation (0 if
// the channel was never reserved).
func (r *Rank) ReservedUntil() PS { return r.reservedUntil }

// OpenRow returns the currently open row in a bank, if any.
func (r *Rank) OpenRow(bankIdx int) (Row, bool) {
	row := r.banks[bankIdx].openRow
	return row, row != InvalidRow
}

func maxPS(a, b PS) PS {
	if a > b {
		return a
	}
	return b
}
