package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/dram"
)

// FuzzBinaryReader: arbitrary input must never panic or loop; every
// decoded record must re-encode losslessly.
func FuzzBinaryReader(f *testing.F) {
	// Seed with a valid two-record trace and some corruptions of it.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2)
	w.Append(Record{Row: 100, GapInstr: 5})
	w.Append(Record{Row: 7, Write: true, GapInstr: 0})
	w.Close()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	// An unknown format version: rejected at the header, never decoded.
	bumped := bytes.Clone(valid)
	bumped[4]++
	f.Add(bumped)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var recs []Record
		for i := 0; i < 1<<16; i++ { // decode is bounded by the header count
			rec, err := r.Read()
			if err != nil {
				break
			}
			recs = append(recs, rec)
		}
		// Round-trip whatever was decodable.
		var out bytes.Buffer
		w, err := NewWriter(&out, int64(len(recs)))
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				t.Fatalf("re-encode of decoded record failed: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rr, err := NewReader(&out)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range recs {
			got, err := rr.Read()
			if err != nil || got != want {
				t.Fatalf("record %d: %+v vs %+v (%v)", i, got, want, err)
			}
		}
	})
}

// packedRecordBytes is one fuzzed record: a little-endian row, a
// little-endian gap and a byte whose low bit is the write flag.
const packedRecordBytes = 9

// FuzzPackedRoundTrip: any records whose gaps fit 32 bits, packed under
// any limit, must replay exactly from the narrowest columns, with every
// column's capacity equal to its length and Bytes counting exactly the
// widths, the pad bytes and the bitset.
func FuzzPackedRoundTrip(f *testing.F) {
	for _, tc := range packedCases {
		var data []byte
		for _, r := range tc.records() {
			data = binary.LittleEndian.AppendUint32(data, uint32(r.Row))
			data = binary.LittleEndian.AppendUint32(data, uint32(r.GapInstr))
			var write byte
			if r.Write {
				write = 1
			}
			data = append(data, write)
		}
		f.Add(data, uint16(tc.packLimit()))
	}

	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		recs := make([]Record, len(data)/packedRecordBytes)
		for i := range recs {
			b := data[i*packedRecordBytes:]
			recs[i] = Record{
				Row:      dram.Row(binary.LittleEndian.Uint32(b)),
				GapInstr: int64(binary.LittleEndian.Uint32(b[4:])),
				Write:    b[8]&1 != 0,
			}
		}
		packAndCheck(t, recs, int64(limit))
	})
}
