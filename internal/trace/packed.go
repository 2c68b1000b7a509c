package trace

import (
	"fmt"
	"math"

	"repro/internal/cpu"
	"repro/internal/dram"
)

// Packed is the in-memory replay representation of one core's request
// stream: struct-of-arrays columns sized for the cache, not the decoder.
// Rows and gaps are uint32 columns (8 bytes/record plus one bit for the
// write flag). Replaying via Stream costs a few nanoseconds per record
// and allocates nothing — the point of capturing a stream once and
// replaying it through every grid cell that shares it.
//
// Only generator streams are packed, and a generator gap is at most
// 1.5 x floor(1000/MPKI) instructions: 150,000 at Table II's smallest
// MPKI (0.01), far inside the uint32 column.
type Packed struct {
	rows   []uint32
	gaps   []uint32
	writes []uint64 // bitset, one bit per record
}

// Len returns the number of records.
func (p *Packed) Len() int64 { return int64(len(p.rows)) }

// Bytes returns the approximate memory footprint of the packed columns.
func (p *Packed) Bytes() int64 {
	return int64(len(p.rows))*4 + int64(len(p.gaps))*4 + int64(len(p.writes))*8
}

// Append adds one record. It panics on a gap outside [0, 2^32), which no
// generator produces.
func (p *Packed) Append(r Record) {
	if uint64(r.GapInstr) > math.MaxUint32 {
		panic(fmt.Sprintf("trace: gap %d does not fit a packed uint32 column", r.GapInstr))
	}
	i := len(p.rows)
	p.rows = append(p.rows, uint32(r.Row))
	p.gaps = append(p.gaps, uint32(r.GapInstr))
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

// Next implements cpu.Stream: three column loads and a bit test.
func (s *PackedStream) Next() (cpu.Request, bool) {
	i := s.pos
	p := s.p
	if i >= len(p.rows) {
		return cpu.Request{}, false
	}
	s.pos = i + 1
	return cpu.Request{
		Row:      dram.Row(p.rows[i]),
		Write:    p.writes[i>>6]&(1<<(uint(i)&63)) != 0,
		GapInstr: int64(p.gaps[i]),
	}, true
}
