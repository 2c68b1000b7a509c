// Package trace holds memory request streams in one encoding, Packed,
// so experiments are reproducible artifacts: a workload or attack
// stream can be recorded once, shipped, inspected, and replayed
// bit-for-bit through any mitigation configuration (the role gem5
// checkpoints play for the paper's artifact). The runner's trace tier
// replays the same columns in memory.
//
// A trace file is a Packed's columns as WriteTo writes them: a fixed
// 26-byte header, then the row column, the gap column and the write
// bitset, with no pad bytes. Every column stores a record's value as
// its offset from the column's minimum in the fewest whole bytes (1-4)
// that hold the column's range, so a generator stream's file takes
// 4.1-6.1 bytes per record. ReadPacked accepts exactly that form.
//
// A Packed replays through Stream, a cpu.Stream, so a trace plugs
// directly into the simulator in place of a generator.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/cpu"
	"repro/internal/dram"
)

// The file header, little-endian:
//
//	offset  size  field
//	0       4     magic "AQTR"
//	4       4     format version
//	8       8     record count
//	16      4     row column minimum
//	20      1     row column width in bytes (1-4)
//	21      4     gap column minimum
//	25      1     gap column width in bytes (1-4)
const (
	magic       = 0x41515452
	version     = 2
	headerBytes = 26
)

// Record is one memory request.
type Record struct {
	Row      dram.Row
	Write    bool
	GapInstr int64
}

// WriteTo implements io.WriterTo: it writes p's file form, the header,
// the row column and the gap column at their widths without their pad,
// and the write bitset as little-endian 64-bit words.
func (p *Packed) WriteTo(w io.Writer) (int64, error) {
	rows, gaps := p.rows.data[:p.n*p.rows.width], p.gaps.data[:p.n*p.gaps.width]
	buf := make([]byte, headerBytes, headerBytes+len(rows)+len(gaps)+8*len(p.writes))
	binary.LittleEndian.PutUint32(buf[0:], magic)
	binary.LittleEndian.PutUint32(buf[4:], version)
	binary.LittleEndian.PutUint64(buf[8:], uint64(p.n))
	binary.LittleEndian.PutUint32(buf[16:], p.rows.min)
	buf[20] = byte(p.rows.width)
	binary.LittleEndian.PutUint32(buf[21:], p.gaps.min)
	buf[25] = byte(p.gaps.width)
	buf = append(append(buf, rows...), gaps...)
	for _, word := range p.writes {
		buf = binary.LittleEndian.AppendUint64(buf, word)
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadPacked reads r to its end and decodes the file form WriteTo
// writes. It accepts only what WriteTo can have written: the magic, the
// current version, a body of exactly the length the header implies, no
// write bit past the last record, and each column as PackStream lays it
// out. Writing the result therefore gives back the input byte for byte.
func ReadPacked(r io.Reader) (*Packed, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// The version is checked before the header's length, so that a file
	// of an older, shorter header is named by its version.
	switch {
	case len(data) < 4 || binary.LittleEndian.Uint32(data) != magic:
		return nil, errors.New("trace: not a trace file (bad magic)")
	case len(data) >= 8 && binary.LittleEndian.Uint32(data[4:]) != version:
		return nil, fmt.Errorf("trace: format version %d, but only version %d is read: re-record the trace with `tracedump record`",
			binary.LittleEndian.Uint32(data[4:]), version)
	case len(data) < headerBytes:
		return nil, fmt.Errorf("trace: %d bytes, shorter than the %d-byte header", len(data), headerBytes)
	}
	count := binary.LittleEndian.Uint64(data[8:])
	rowW, gapW := int(data[20]), int(data[25])
	if rowW < 1 || rowW > 4 || gapW < 1 || gapW > 4 {
		return nil, fmt.Errorf("trace: column widths %d and %d bytes, want 1-4", rowW, gapW)
	}
	body := data[headerBytes:]
	// Every record takes at least two bytes, so a count past the body's
	// length is rejected before any size is computed from it.
	if count > uint64(len(body)) {
		return nil, fmt.Errorf("trace: header claims %d records, but the file holds %d bytes after it", count, len(body))
	}
	n := int(count)
	rowEnd := n * rowW
	gapEnd := rowEnd + n*gapW
	words := (n + 63) / 64
	if want := gapEnd + 8*words; len(body) != want {
		return nil, fmt.Errorf("trace: %d records take %d bytes after the header, the file holds %d", n, want, len(body))
	}
	rows, err := readColumn(body[:rowEnd], n, binary.LittleEndian.Uint32(data[16:]), rowW)
	if err != nil {
		return nil, fmt.Errorf("trace: row column: %w", err)
	}
	gaps, err := readColumn(body[rowEnd:gapEnd], n, binary.LittleEndian.Uint32(data[21:]), gapW)
	if err != nil {
		return nil, fmt.Errorf("trace: gap column: %w", err)
	}
	writes := make([]uint64, words)
	for i := range writes {
		writes[i] = binary.LittleEndian.Uint64(body[gapEnd+8*i:])
	}
	if n%64 != 0 && writes[words-1]>>(n%64) != 0 {
		return nil, fmt.Errorf("trace: write bit set past the last of %d records", n)
	}
	return &Packed{n: n, rows: rows, gaps: gaps, writes: writes}, nil
}

// readColumn rebuilds a column of n values, width bytes each, from its
// file form and adds the pad that column.at's 4-byte load needs. It
// accepts only what newColumn writes: offsets whose least is 0 (an empty
// column has minimum 0), the narrowest width that holds the greatest,
// and no value past 2^32-1 once the minimum is added back.
func readColumn(b []byte, n int, least uint32, width int) (column, error) {
	c := column{data: make([]byte, len(b)+columnPad), min: least, width: width, mask: uint32(1)<<(8*width) - 1}
	copy(c.data, b)
	lo, hi := uint32(0), uint32(0)
	if n > 0 {
		lo = c.mask
	}
	for i := range n {
		off := binary.LittleEndian.Uint32(c.data[i*width:]) & c.mask
		lo, hi = min(lo, off), max(hi, off)
	}
	switch {
	case lo != 0:
		return column{}, fmt.Errorf("minimum %d is not the least value (every offset is at least %d)", least, lo)
	case n == 0 && least != 0:
		return column{}, fmt.Errorf("empty column with minimum %d", least)
	case hi > math.MaxUint32-least:
		return column{}, fmt.Errorf("offset %d past minimum %d overflows 32 bits", hi, least)
	case width > 1 && hi <= c.mask>>8:
		return column{}, fmt.Errorf("%d-byte width for offsets up to %d", width, hi)
	}
	return c, nil
}

// SliceStream adapts a record slice to cpu.Stream.
type SliceStream struct {
	recs []Record
	pos  int
}

var _ cpu.Stream = (*SliceStream)(nil)

// NewSliceStream wraps recs.
func NewSliceStream(recs []Record) *SliceStream { return &SliceStream{recs: recs} }

// Next implements cpu.Stream.
func (s *SliceStream) Next() (cpu.Request, bool) {
	if s.pos >= len(s.recs) {
		return cpu.Request{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return cpu.Request{Row: r.Row, Write: r.Write, GapInstr: r.GapInstr}, true
}
