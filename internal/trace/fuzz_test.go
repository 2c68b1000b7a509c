package trace

import (
	"bytes"
	"strings"
	"testing"
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

// FuzzTextReader: arbitrary text must never panic; valid parses must
// round-trip through WriteText.
func FuzzTextReader(f *testing.F) {
	f.Add("R 5 10\nW 6 0\n")
	f.Add("# comment\n\nR 1 2")
	f.Add("X 1 2")
	f.Add(strings.Repeat("R 4294967295 9223372036854775807\n", 3))

	f.Fuzz(func(t *testing.T, data string) {
		recs, err := ReadText(strings.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, recs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round-trip length %d vs %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("round-trip record %d: %+v vs %+v", i, again[i], recs[i])
			}
		}
	})
}
