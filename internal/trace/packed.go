package trace

import (
	"repro/internal/cpu"
	"repro/internal/dram"
)

// Packed is the in-memory replay representation of one core's request
// stream: struct-of-arrays columns sized for the cache, not the decoder.
// Rows and gaps are uint32 columns (8 bytes/record plus one bit for the
// write flag); the rare gap that overflows 32 bits is parked in a side
// table keyed by record index. Replaying via Stream costs a few
// nanoseconds per record and allocates nothing — the point of capturing
// a stream once and replaying it through every grid cell that shares it.
type Packed struct {
	rows   []uint32
	gaps   []uint32
	writes []uint64 // bitset, one bit per record
	// overflow holds the full gap for records whose gap does not fit a
	// uint32 (their gaps entry is gapOverflow). Generator gaps are bounded
	// far below 2^32, so this stays empty on every synthetic stream; it
	// exists so Packed is lossless for arbitrary traces.
	overflow map[int64]int64
}

// gapOverflow marks a gaps[] entry whose true value lives in overflow.
const gapOverflow = ^uint32(0)

// Len returns the number of records.
func (p *Packed) Len() int64 { return int64(len(p.rows)) }

// Bytes returns the approximate memory footprint of the packed columns.
func (p *Packed) Bytes() int64 {
	return int64(len(p.rows))*4 + int64(len(p.gaps))*4 + int64(len(p.writes))*8
}

// Append adds one record.
func (p *Packed) Append(r Record) {
	i := len(p.rows)
	p.rows = append(p.rows, uint32(r.Row))
	gap := uint32(r.GapInstr)
	if uint64(r.GapInstr) >= uint64(gapOverflow) {
		gap = gapOverflow
		if p.overflow == nil {
			p.overflow = make(map[int64]int64)
		}
		p.overflow[int64(i)] = r.GapInstr
	}
	p.gaps = append(p.gaps, gap)
	if i>>6 >= len(p.writes) {
		p.writes = append(p.writes, 0)
	}
	if r.Write {
		p.writes[i>>6] |= 1 << (uint(i) & 63)
	}
}

// PackStream drains a finite cpu.Stream into a Packed (at most limit
// records; limit 0 means unbounded).
func PackStream(s cpu.Stream, limit int64) *Packed {
	p := &Packed{}
	for limit == 0 || p.Len() < limit {
		req, ok := s.Next()
		if !ok {
			break
		}
		p.Append(Record{Row: req.Row, Write: req.Write, GapInstr: req.GapInstr})
	}
	return p
}

// Stream returns a fresh replay cursor over the packed records. Cursors
// are independent: any number may replay the same Packed concurrently.
func (p *Packed) Stream() *PackedStream { return &PackedStream{p: p} }

// PackedStream replays a Packed as a cpu.Stream.
type PackedStream struct {
	p   *Packed
	pos int
}

var _ cpu.Stream = (*PackedStream)(nil)

// Next implements cpu.Stream. The hot path is three column loads and a
// bit test; the overflow map is consulted only for the sentinel value.
func (s *PackedStream) Next() (cpu.Request, bool) {
	i := s.pos
	p := s.p
	if i >= len(p.rows) {
		return cpu.Request{}, false
	}
	s.pos = i + 1
	gap := int64(p.gaps[i])
	if p.gaps[i] == gapOverflow {
		if full, ok := p.overflow[int64(i)]; ok {
			gap = full
		}
	}
	return cpu.Request{
		Row:      dram.Row(p.rows[i]),
		Write:    p.writes[i>>6]&(1<<(uint(i)&63)) != 0,
		GapInstr: gap,
	}, true
}
