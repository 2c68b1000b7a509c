// Package attack generates adversarial access patterns: the classic
// Rowhammer shapes (single-sided, double-sided, many-sided), the
// Half-Double pattern that defeats victim refresh (Section I), the
// worst-case denial-of-service pattern of Section VI-C, and a
// table-hammering pattern (PTHammer-style) aimed at AQUA's memory-mapped
// tables (Section VI-B).
//
// Every pattern is a cpu.Stream, so attacks run through the same cores,
// controller, and rank as benign workloads and are observed by the same
// security monitor. Patterns are built from row sequences that force a row
// activation on (nearly) every access by alternating conflicting rows
// within a bank.
package attack

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/dram"
)

// Sequence is a cpu.Stream cycling through a fixed row sequence for a
// given total number of requests.
type Sequence struct {
	rows   []dram.Row
	remain int64
	idx    int
	gap    int64
}

var _ cpu.Stream = (*Sequence)(nil)

// NewSequence builds a stream that cycles `rows` until `total` requests
// have been issued. gapInstr is the instruction gap between accesses
// (attackers are memory-bound; 1 models a tight flush+access loop).
func NewSequence(rows []dram.Row, total int64, gapInstr int64) *Sequence {
	if len(rows) == 0 {
		panic("attack: empty row sequence")
	}
	if gapInstr < 1 {
		gapInstr = 1
	}
	return &Sequence{rows: rows, remain: total, gap: gapInstr}
}

// Next implements cpu.Stream.
func (s *Sequence) Next() (cpu.Request, bool) {
	if s.remain <= 0 {
		return cpu.Request{}, false
	}
	s.remain--
	row := s.rows[s.idx]
	s.idx = (s.idx + 1) % len(s.rows)
	return cpu.Request{Row: row, GapInstr: s.gap}, true
}

// Concat chains streams back to back.
func Concat(streams ...cpu.Stream) cpu.Stream { return &concat{streams: streams} }

type concat struct{ streams []cpu.Stream }

// Next implements cpu.Stream.
func (c *concat) Next() (cpu.Request, bool) {
	for len(c.streams) > 0 {
		if req, ok := c.streams[0].Next(); ok {
			return req, true
		}
		c.streams = c.streams[1:]
	}
	return cpu.Request{}, false
}

// conflictPartner returns a row in the same bank, far from r, used to
// force a row-buffer conflict between consecutive accesses to r.
func conflictPartner(geom dram.Geometry, r dram.Row, visibleRowsPerBank int) dram.Row {
	bank := geom.BankOf(r)
	n := visibleRowsPerBank
	if n <= 0 || n > geom.RowsPerBank {
		n = geom.RowsPerBank
	}
	idx := (geom.IndexOf(r) + n/2) % n
	if idx == geom.IndexOf(r) {
		idx = (idx + 1) % n
	}
	return geom.RowOf(bank, idx)
}

// SingleSided hammers one aggressor row: accesses alternate between the
// aggressor and a far conflict row in the same bank so that every access
// to the aggressor activates it. `acts` is the number of aggressor
// activations.
func SingleSided(geom dram.Geometry, aggressor dram.Row, visibleRowsPerBank int, acts int64) cpu.Stream {
	partner := conflictPartner(geom, aggressor, visibleRowsPerBank)
	return NewSequence([]dram.Row{aggressor, partner}, 2*acts, 1)
}

// DoubleSided hammers both neighbours of the victim row: the classic
// pattern, `acts` activations per aggressor. Panics if the victim is at a
// bank edge.
func DoubleSided(geom dram.Geometry, victim dram.Row, acts int64) cpu.Stream {
	nbrs := geom.Neighbors(victim, 1)
	if len(nbrs) != 2 {
		panic(fmt.Sprintf("attack: victim %d lacks two neighbours", victim))
	}
	return NewSequence(nbrs, 2*acts, 1)
}

// ManySided cycles n aggressors around the victim (TRRespass-style):
// rows victim-n..victim-1 and victim+1..victim+n.
func ManySided(geom dram.Geometry, victim dram.Row, n int, actsPerAggressor int64) cpu.Stream {
	var rows []dram.Row
	for d := 1; d <= n; d++ {
		rows = append(rows, geom.Neighbors(victim, d)...)
	}
	if len(rows) < 2 {
		panic("attack: many-sided needs at least two aggressors")
	}
	return NewSequence(rows, int64(len(rows))*actsPerAggressor, 1)
}

// HalfDouble hammers a far aggressor at distance 2 from the intended
// victim (plus its mirror), relying on the victim-refresh mitigation's own
// refreshes of the distance-1 rows to disturb the distance-2 victim
// (Figure 1a). The returned stream is a double-sided pattern centred on
// victim's distance-2 ring.
func HalfDouble(geom dram.Geometry, victim dram.Row, acts int64) cpu.Stream {
	far := geom.Neighbors(victim, 2)
	if len(far) != 2 {
		panic(fmt.Sprintf("attack: victim %d lacks distance-2 neighbours", victim))
	}
	return NewSequence(far, 2*acts, 1)
}

// AdaptiveHammer models an attacker who keeps hammering one install row
// even as row migration relocates it to unknown banks: each round touches
// a conflict row in *every* bank before re-touching the target, so
// whichever bank currently holds the target's physical row gets a
// row-buffer conflict and the target activates once per round. This is the
// strongest row-focused pattern available without knowing the FPT
// contents, and the one AQUA's per-round activation budget (rounds cost
// B+1 accesses) is analysed against.
func AdaptiveHammer(geom dram.Geometry, target dram.Row, visibleRowsPerBank int, rounds int64) cpu.Stream {
	n := visibleRowsPerBank
	if n <= 0 || n > geom.RowsPerBank {
		n = geom.RowsPerBank
	}
	rows := make([]dram.Row, 0, geom.Banks+1)
	rows = append(rows, target)
	idx := (geom.IndexOf(target) + n/2) % n
	for b := 0; b < geom.Banks; b++ {
		if geom.RowOf(b, idx) == target {
			idx = (idx + 1) % n
		}
		rows = append(rows, geom.RowOf(b, idx))
	}
	return NewSequence(rows, int64(len(rows))*rounds, 1)
}

// RotatingDoS implements the Section VI-C worst-case pattern: in every
// bank, hammer a fresh row exactly `threshold` times (forcing a quarantine
// with eviction), then move to the next row; all banks are attacked
// round-robin so mitigations pile up on the shared channel.
type RotatingDoS struct {
	geom      dram.Geometry
	visible   int
	threshold int64
	remain    int64

	bank    int
	target  []dram.Row // current target per bank
	partner []dram.Row
	count   []int64 // activations of current target
	cursor  []int   // next fresh row index per bank
	phase   []bool  // false: access target next; true: access partner
}

var _ cpu.Stream = (*RotatingDoS)(nil)

// NewRotatingDoS builds the DoS stream over the visible region.
func NewRotatingDoS(geom dram.Geometry, visibleRowsPerBank int, threshold int64, totalReqs int64) *RotatingDoS {
	if visibleRowsPerBank <= 0 || visibleRowsPerBank > geom.RowsPerBank {
		visibleRowsPerBank = geom.RowsPerBank
	}
	d := &RotatingDoS{
		geom:      geom,
		visible:   visibleRowsPerBank,
		threshold: threshold,
		remain:    totalReqs,
		target:    make([]dram.Row, geom.Banks),
		partner:   make([]dram.Row, geom.Banks),
		count:     make([]int64, geom.Banks),
		cursor:    make([]int, geom.Banks),
		phase:     make([]bool, geom.Banks),
	}
	for b := 0; b < geom.Banks; b++ {
		d.advanceTarget(b)
	}
	return d
}

// advanceTarget selects the next fresh aggressor row in a bank.
func (d *RotatingDoS) advanceTarget(bank int) {
	idx := d.cursor[bank] % d.visible
	d.cursor[bank] += 2 // leave space so partners never collide
	d.target[bank] = d.geom.RowOf(bank, idx)
	d.partner[bank] = conflictPartner(d.geom, d.target[bank], d.visible)
	d.count[bank] = 0
	d.phase[bank] = false
}

// Next implements cpu.Stream: banks are visited round-robin; within a bank
// accesses alternate target/partner so each target access activates it.
func (d *RotatingDoS) Next() (cpu.Request, bool) {
	if d.remain <= 0 {
		return cpu.Request{}, false
	}
	d.remain--
	b := d.bank
	d.bank = (d.bank + 1) % d.geom.Banks

	var row dram.Row
	if d.phase[b] {
		row = d.partner[b]
	} else {
		row = d.target[b]
		d.count[b]++
		if d.count[b] >= d.threshold {
			defer d.advanceTarget(b)
		}
	}
	d.phase[b] = !d.phase[b]
	return cpu.Request{Row: row, GapInstr: 1}, true
}

// TableHammer builds the PTHammer-style attack on AQUA's memory-mapped
// tables: first quarantine two rows in each of the given bloom groups (so
// the groups are neither filtered nor singletons), then sweep distinct
// rows of those groups so every sweep access forces a DRAM read of the
// same FPT table row, hammering it.
//
// groupRows must contain, per group, at least two setup rows followed by
// the sweep rows; the caller (tests, aquasim -attack) derives them and
// visibleRowsPerBank from AQUA's table layout (core.VisibleRowsPerBankFor).
// setupActs is the activation count that quarantines a row (T_RH/2).
func TableHammer(geom dram.Geometry, visibleRowsPerBank int, setupRows, sweepRows []dram.Row, setupActs, sweepRounds int64) cpu.Stream {
	streams := make([]cpu.Stream, 0, len(setupRows)+1)
	for _, r := range setupRows {
		streams = append(streams, SingleSided(geom, r, visibleRowsPerBank, setupActs))
	}
	if len(sweepRows) > 0 {
		streams = append(streams, NewSequence(sweepRows, int64(len(sweepRows))*sweepRounds, 1))
	}
	return Concat(streams...)
}
