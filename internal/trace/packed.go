package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/cpu"
	"repro/internal/dram"
)

// Packed is the in-memory replay representation of one core's request
// stream: struct-of-arrays columns sized by the values they hold. The row
// column and the gap column each store a record's value as its offset
// from the column's minimum, in the fewest whole bytes (1-4) that hold
// the column's range; a one-bit-per-record bitset holds the write flags.
// A generator stream spans up to 2^21 rows and, for the workloads that
// produce most records, gaps within a 256-instruction range: 3 + 1 bytes
// plus one bit per record. Every column is allocated once at its final
// length. Replaying via Stream costs a few nanoseconds per record and
// allocates nothing — the point of capturing a stream once and
// replaying it through every grid cell that shares it. WriteTo and
// ReadPacked store the same columns as a trace file.
//
// Only generator streams are packed, and a generator gap is at most
// 1.5 x floor(1000/MPKI) instructions: 150,000 at Table II's smallest
// MPKI (0.01), far inside a 4-byte column.
type Packed struct {
	n      int
	rows   column
	gaps   column
	writes []uint64 // bitset, one bit per record
}

// columnPad follows a column's last value so that every value, the last
// included, is read with one 4-byte load.
const columnPad = 3

// column holds uint32 values as little-endian offsets from min, width
// bytes each, followed by columnPad zero bytes.
type column struct {
	data  []byte
	min   uint32
	width int
	mask  uint32 // the low 8*width bits
}

// newColumn encodes vals in the narrowest width that holds their range.
func newColumn(vals []uint32) column {
	var lo, hi uint32
	if len(vals) > 0 {
		lo, hi = slices.Min(vals), slices.Max(vals)
	}
	c := column{min: lo, width: 1, mask: 0xFF}
	for hi-lo > c.mask {
		c.width++
		c.mask = c.mask<<8 | 0xFF
	}
	c.data = make([]byte, len(vals)*c.width+columnPad)
	// Each store writes 4 bytes: the value's width bytes and zeros the
	// next store (or the pad) takes over.
	for i, v := range vals {
		binary.LittleEndian.PutUint32(c.data[i*c.width:], v-lo)
	}
	return c
}

// at returns value i: one 4-byte load, a mask and an add, at every width.
func (c *column) at(i int) uint32 {
	return binary.LittleEndian.Uint32(c.data[i*c.width:])&c.mask + c.min
}

// Len returns the number of records.
func (p *Packed) Len() int64 { return int64(p.n) }

// Bytes returns the memory the packed columns hold. Every column's
// capacity equals its length, so this is what the tier allocated.
func (p *Packed) Bytes() int64 {
	return int64(len(p.rows.data)) + int64(len(p.gaps.data)) + int64(len(p.writes))*8
}

// PackStream drains at most limit records of a cpu.Stream into a Packed.
// The caller knows the request budget, so limit also sizes the scratch
// columns the records are drained into before each is encoded once. It
// panics on a gap outside [0, 2^32), which no generator produces.
func PackStream(s cpu.Stream, limit int64) *Packed {
	rows := make([]uint32, 0, limit)
	gaps := make([]uint32, 0, limit)
	writes := make([]uint64, (limit+63)/64)
	for int64(len(rows)) < limit {
		req, ok := s.Next()
		if !ok {
			break
		}
		if uint64(req.GapInstr) > math.MaxUint32 {
			panic(fmt.Sprintf("trace: gap %d does not fit a packed 4-byte column", req.GapInstr))
		}
		if req.Write {
			writes[len(rows)>>6] |= 1 << (uint(len(rows)) & 63)
		}
		rows = append(rows, uint32(req.Row))
		gaps = append(gaps, uint32(req.GapInstr))
	}
	n := len(rows)
	if words := (n + 63) / 64; words < len(writes) {
		short := make([]uint64, words)
		copy(short, writes)
		writes = short
	}
	return &Packed{n: n, rows: newColumn(rows), gaps: newColumn(gaps), writes: writes}
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

// Next implements cpu.Stream: two column reads and a bit test.
func (s *PackedStream) Next() (cpu.Request, bool) {
	i := s.pos
	p := s.p
	if i >= p.n {
		return cpu.Request{}, false
	}
	s.pos = i + 1
	return cpu.Request{
		Row:      dram.Row(p.rows.at(i)),
		Write:    p.writes[i>>6]&(1<<(uint(i)&63)) != 0,
		GapInstr: int64(p.gaps.at(i)),
	}, true
}
