// Package trace defines a compact on-disk format for memory request
// streams, so experiments are reproducible artifacts: a workload or attack
// stream can be recorded once, shipped, inspected, and replayed bit-for-bit
// through any mitigation configuration (the role gem5 checkpoints play for
// the paper's artifact).
//
// aqua-trace-v1 is the only file format: a fixed 16-byte header followed
// by varint-delta records (Row, Write, GapInstr) — rows are XOR-delta
// encoded against the previous row and gaps are raw varints, which
// compresses typical streams to ~3-5 bytes/record. WriteText prints
// records one "R|W <row> <gap>" line each for inspection; nothing parses
// that text back.
//
// Readers implement cpu.Stream, so a trace plugs directly into the
// simulator in place of a generator.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/cpu"
	"repro/internal/dram"
)

// magic identifies the binary format ("AQTR") and its version.
const (
	magic   = 0x41515452
	version = 1
)

// Record is one memory request.
type Record struct {
	Row      dram.Row
	Write    bool
	GapInstr int64
}

// Header describes a binary trace.
type Header struct {
	// Records is the number of records that follow.
	Records int64
	// Flags is reserved (0).
	Flags uint32
}

var (
	// ErrBadMagic marks a stream that is not a binary trace.
	ErrBadMagic = errors.New("trace: bad magic")
	// ErrBadVersion marks an unsupported format version.
	ErrBadVersion = errors.New("trace: unsupported version")
	// ErrTruncated marks a stream that ends mid-record.
	ErrTruncated = errors.New("trace: truncated")
)

// Writer encodes records in the binary format. Close must be called to
// flush buffered data; the record count is written up front, so the
// number of Append calls must match the declared count.
type Writer struct {
	w        *bufio.Writer
	declared int64
	written  int64
	prevRow  uint32
	buf      [binary.MaxVarintLen64 + 1]byte
}

// NewWriter starts a binary trace of exactly `records` records on w.
func NewWriter(w io.Writer, records int64) (*Writer, error) {
	if records < 0 {
		return nil, fmt.Errorf("trace: negative record count %d", records)
	}
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(records))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, declared: records}, nil
}

// Append encodes one record.
func (w *Writer) Append(r Record) error {
	if w.written >= w.declared {
		return fmt.Errorf("trace: more than the declared %d records", w.declared)
	}
	// Byte 0: write flag; then XOR-delta row varint; then gap varint.
	flag := byte(0)
	if r.Write {
		flag = 1
	}
	if err := w.w.WriteByte(flag); err != nil {
		return err
	}
	delta := uint32(r.Row) ^ w.prevRow
	n := binary.PutUvarint(w.buf[:], uint64(delta))
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		return err
	}
	if r.GapInstr < 0 {
		return fmt.Errorf("trace: negative gap %d", r.GapInstr)
	}
	n = binary.PutUvarint(w.buf[:], uint64(r.GapInstr))
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		return err
	}
	w.prevRow = uint32(r.Row)
	w.written++
	return nil
}

// Close flushes the trace; it fails if fewer records were appended than
// declared.
func (w *Writer) Close() error {
	if w.written != w.declared {
		return fmt.Errorf("trace: wrote %d of %d declared records", w.written, w.declared)
	}
	return w.w.Flush()
}

// Reader decodes a binary trace and implements cpu.Stream.
type Reader struct {
	r       *bufio.Reader
	hdr     Header
	read    int64
	prevRow uint32
	err     error
}

var _ cpu.Stream = (*Reader)(nil)

// NewReader opens a binary trace.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return &Reader{
		r:   br,
		hdr: Header{Records: int64(binary.LittleEndian.Uint64(hdr[8:]))},
	}, nil
}

// Header returns the trace header.
func (r *Reader) Header() Header { return r.hdr }

// Err returns the first decoding error encountered by Next.
func (r *Reader) Err() error { return r.err }

// Read decodes the next record.
func (r *Reader) Read() (Record, error) {
	if r.read >= r.hdr.Records {
		return Record{}, io.EOF
	}
	flag, err := r.r.ReadByte()
	if err != nil {
		return Record{}, truncated(err)
	}
	if flag > 1 {
		return Record{}, fmt.Errorf("trace: bad flag byte %#x", flag)
	}
	delta, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Record{}, truncated(err)
	}
	if delta > uint64(^uint32(0)) {
		return Record{}, fmt.Errorf("trace: row delta %d overflows", delta)
	}
	gap, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Record{}, truncated(err)
	}
	if gap > 1<<62 {
		return Record{}, fmt.Errorf("trace: gap %d overflows", gap)
	}
	r.prevRow ^= uint32(delta)
	r.read++
	return Record{
		Row:      dram.Row(r.prevRow),
		Write:    flag == 1,
		GapInstr: int64(gap),
	}, nil
}

// Next implements cpu.Stream; decode errors end the stream and are
// reported by Err.
func (r *Reader) Next() (cpu.Request, bool) {
	rec, err := r.Read()
	if err != nil {
		if err != io.EOF {
			r.err = err
		}
		return cpu.Request{}, false
	}
	return cpu.Request{Row: rec.Row, Write: rec.Write, GapInstr: rec.GapInstr}, true
}

func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}

// Capture drains a cpu.Stream into a binary trace, returning the number
// of records written. The stream must be finite.
func Capture(w io.Writer, s cpu.Stream, limit int64) (int64, error) {
	// First pass into memory: streams are not rewindable and the header
	// needs the count.
	var recs []Record
	for int64(len(recs)) < limit || limit == 0 {
		req, ok := s.Next()
		if !ok {
			break
		}
		recs = append(recs, Record{Row: req.Row, Write: req.Write, GapInstr: req.GapInstr})
	}
	tw, err := NewWriter(w, int64(len(recs)))
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		if err := tw.Append(rec); err != nil {
			return 0, err
		}
	}
	return int64(len(recs)), tw.Close()
}

// WriteText prints records one "R|W <row> <gap>" line each.
func WriteText(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		op := "R"
		if r.Write {
			op = "W"
		}
		if _, err := fmt.Fprintf(bw, "%s %d %d\n", op, r.Row, r.GapInstr); err != nil {
			return err
		}
	}
	return bw.Flush()
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
