package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/dram"
)

// FuzzReadPacked: arbitrary bytes must never panic ReadPacked, and a
// file it accepts must be the one encoding of its records: writing the
// Packed it returns, or packing its replay again, gives the same bytes.
func FuzzReadPacked(f *testing.F) {
	valid := fileBytes(f, PackStream(NewSliceStream(sample()), 4))
	f.Add(valid)
	// One record in 1-byte columns: every value is read through the pad.
	f.Add(fileBytes(f, PackStream(NewSliceStream([]Record{{Row: 7, Write: true, GapInstr: 3}}), 1)))
	f.Add(v1File)
	// 2^40 records claimed over a few bytes: rejected before any column
	// is allocated.
	f.Add(append(header(version, 1<<40, 0, 1, 0, 1), 1, 2, 3))
	f.Add(valid[:len(valid)-1])
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPacked(bytes.NewBuffer(data))
		if err != nil {
			return
		}
		if got := fileBytes(t, p); !bytes.Equal(got, data) {
			t.Fatalf("accepted %d bytes, rewrote %d different ones", len(data), len(got))
		}
		if got := fileBytes(t, PackStream(p.Stream(), p.Len())); !bytes.Equal(got, data) {
			t.Fatalf("accepted %d bytes, but repacking the replay wrote %d different ones", len(data), len(got))
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
