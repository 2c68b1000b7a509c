package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/rng"
	"repro/internal/workload"
)

func sample() []Record {
	return []Record{
		{Row: 100, Write: false, GapInstr: 158},
		{Row: 101, Write: true, GapInstr: 42},
		{Row: 100, Write: false, GapInstr: 0},
		{Row: 1 << 20, Write: false, GapInstr: 1 << 31},
	}
}

// fileBytes returns p's file form.
func fileBytes(t testing.TB, p *Packed) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := p.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo = %d, %v; wrote %d bytes", n, err, buf.Len())
	}
	return buf.Bytes()
}

// fileRoundTrip writes p and reads it back. The file must hold exactly
// the header and p's columns without their pad, the Packed read back
// must deep-equal p, and writing it must give the same bytes.
func fileRoundTrip(t testing.TB, p *Packed) *Packed {
	t.Helper()
	file := fileBytes(t, p)
	if want := headerBytes + p.Bytes() - 2*columnPad; int64(len(file)) != want {
		t.Fatalf("file holds %d bytes, want %d", len(file), want)
	}
	q, err := ReadPacked(bytes.NewBuffer(file))
	if err != nil {
		t.Fatalf("ReadPacked of a written file: %v", err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("read back %+v, wrote %+v", q, p)
	}
	if again := fileBytes(t, q); !bytes.Equal(again, file) {
		t.Fatalf("rewriting the read-back Packed gave %d different bytes", len(again))
	}
	return q
}

// TestBinaryRoundTrip writes a small trace and reads it back.
func TestBinaryRoundTrip(t *testing.T) {
	recs := sample()
	q := fileRoundTrip(t, PackStream(NewSliceStream(recs), int64(len(recs))))
	if q.Len() != int64(len(recs)) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(recs))
	}
}

// TestStreamAdapter replays a trace file as a cpu.Stream: every record
// comes back, and then the stream stays ended.
func TestStreamAdapter(t *testing.T) {
	recs := sample()
	q, err := ReadPacked(bytes.NewBuffer(fileBytes(t, PackStream(NewSliceStream(recs), int64(len(recs))))))
	if err != nil {
		t.Fatal(err)
	}
	s := q.Stream()
	sameRecords(t, drain(t, s), recs, "file replay")
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted stream returned a record")
	}
}

// TestCaptureLimit: a capture under a limit shorter than its stream
// writes a file of exactly the first limit records.
func TestCaptureLimit(t *testing.T) {
	recs := sample()
	q := fileRoundTrip(t, PackStream(NewSliceStream(recs), 2))
	sameRecords(t, drain(t, q.Stream()), recs[:2], "limited capture")
}

func TestBinaryRoundTripProperty(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		rnd := rng.New(seed)
		recs := make([]Record, int(n))
		for i := range recs {
			recs[i] = Record{
				Row:      dram.Row(rnd.Uint64() >> 32),
				Write:    rnd.Float64() < 0.5,
				GapInstr: int64(rnd.Uint64n(1 << 30)),
			}
		}
		packAndCheck(t, recs, int64(len(recs)))
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// header builds a file header field by field.
func header(version uint32, records uint64, rowMin uint32, rowW byte, gapMin uint32, gapW byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = binary.LittleEndian.AppendUint32(b, version)
	b = binary.LittleEndian.AppendUint64(b, records)
	b = append(binary.LittleEndian.AppendUint32(b, rowMin), rowW)
	return append(binary.LittleEndian.AppendUint32(b, gapMin), gapW)
}

// v1File is a two-record trace in the retired varint format: the same
// magic, version 1, a record count and three bytes per record.
var v1File = append(header(1, 2, 0, 0, 0, 0)[:16], 0, 100, 5, 1, 99, 0)

// TestReaderRejectsGarbage: ReadPacked returns an error, and no Packed,
// for every input WriteTo cannot have written, including every
// truncation of a valid file.
func TestReaderRejectsGarbage(t *testing.T) {
	// 70 records: rows 2 bytes wide from 1000, gap offsets 0-8 from 3,
	// and a 6-bit tail in the last bitset word.
	var recs []Record
	for i := range 70 {
		recs = append(recs, Record{Row: dram.Row(1000 + 7*i), Write: i%3 == 0, GapInstr: int64(3 + i%9)})
	}
	valid := fileBytes(t, PackStream(NewSliceStream(recs), 70))
	rowEnd, gapEnd := headerBytes+140, headerBytes+210
	edit := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(valid)) }
	cases := []struct {
		name string
		file []byte
		want string
	}{
		{"empty", nil, "bad magic"},
		{"bad magic", edit(func(b []byte) []byte { b[0] ^= 1; return b }), "bad magic"},
		{"v1 file", v1File, "format version 1, but only version 2 is read: re-record the trace with `tracedump record`"},
		{"version 3", edit(func(b []byte) []byte { b[4] = 3; return b }), "format version 3"},
		{"row width 0", edit(func(b []byte) []byte { b[20] = 0; return b }), "column widths 0 and 1"},
		{"row width 5", edit(func(b []byte) []byte { b[20] = 5; return b }), "column widths 5 and 1"},
		{"gap width 0", edit(func(b []byte) []byte { b[25] = 0; return b }), "column widths 2 and 0"},
		{"gap width 5", edit(func(b []byte) []byte { b[25] = 5; return b }), "column widths 2 and 5"},
		{"2^40 records over a few bytes", append(header(2, 1<<40, 0, 4, 0, 4), 1, 2, 3, 4),
			"header claims 1099511627776 records, but the file holds 4 bytes after it"},
		{"one record more than the body holds", edit(func(b []byte) []byte { b[8]++; return b }),
			"71 records take 229 bytes after the header, the file holds 226"},
		{"trailing byte", append(bytes.Clone(valid), 0), "70 records take 226 bytes after the header, the file holds 227"},
		{"write bit past the last record", edit(func(b []byte) []byte { b[len(b)-1] |= 0x80; return b }),
			"write bit set past the last of 70 records"},
		{"minimum below every row", edit(func(b []byte) []byte {
			for i := headerBytes; i < rowEnd; i += 2 {
				binary.LittleEndian.PutUint16(b[i:], binary.LittleEndian.Uint16(b[i:])+1)
			}
			return b
		}), "row column: minimum 1000 is not the least value (every offset is at least 1)"},
		{"width wider than the gaps need", edit(func(b []byte) []byte {
			var gaps []byte
			for _, off := range b[rowEnd:gapEnd] {
				gaps = append(gaps, off, 0)
			}
			b[25] = 2
			return append(append(b[:rowEnd:rowEnd], gaps...), b[gapEnd:]...)
		}), "gap column: 2-byte width for offsets up to 8"},
		{"value past 2^32-1", edit(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[21:], math.MaxUint32-3); return b }),
			"gap column: offset 8 past minimum 4294967292 overflows 32 bits"},
		{"empty column with a minimum", header(2, 0, 0, 1, 9, 1), "gap column: empty column with minimum 9"},
		{"empty column 2 bytes wide", header(2, 0, 0, 2, 0, 1), "row column: 2-byte width for offsets up to 0"},
	}
	for _, tc := range cases {
		p, err := ReadPacked(bytes.NewBuffer(tc.file))
		if err == nil || p != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadPacked = %v, %v; want an error containing %q", tc.name, p, err, tc.want)
		}
	}
	for n := range len(valid) {
		if p, err := ReadPacked(bytes.NewBuffer(valid[:n])); err == nil || p != nil {
			t.Errorf("%d of %d bytes: ReadPacked = %v, %v; want an error", n, len(valid), p, err)
		}
	}
}

// TestCaptureWorkloadAndReplay records a workload generator stream to a
// file and requires the file's replay to equal a second generation.
func TestCaptureWorkloadAndReplay(t *testing.T) {
	spec, _ := workload.ByName("gcc")
	region := workload.Region{
		Geom: dram.Geometry{Banks: 4, RowsPerBank: 1024, RowBytes: 1024, LineBytes: 64},
	}
	gen := workload.NewGenerator(spec, region, 0, 7, workload.Params{})
	q, err := ReadPacked(bytes.NewBuffer(fileBytes(t, PackStream(gen.Stream(500, 3), 500))))
	if err != nil {
		t.Fatal(err)
	}
	r, fresh := q.Stream(), gen.Stream(500, 3)
	for i := 0; i < 500; i++ {
		got, ok1 := r.Next()
		want, ok2 := fresh.Next()
		if !ok1 || !ok2 || got != want {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, got, want)
		}
	}
}

// TestCompressionRatio: a locality-heavy stream packs both columns 1
// byte wide, so its file is the header plus 2 bytes and 1 bit per record.
func TestCompressionRatio(t *testing.T) {
	recs := make([]Record, 10000)
	for i := range recs {
		recs[i] = Record{Row: dram.Row(1000 + i%4), GapInstr: 158}
	}
	file := fileBytes(t, PackStream(NewSliceStream(recs), int64(len(recs))))
	if want := headerBytes + 2*len(recs) + 8*((len(recs)+63)/64); len(file) != want {
		t.Fatalf("%d-byte file, want %d", len(file), want)
	}
}

func TestSliceStreamExhausts(t *testing.T) {
	s := NewSliceStream(sample())
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != len(sample()) {
		t.Fatalf("n = %d", n)
	}
}
