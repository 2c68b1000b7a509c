package trace

import (
	"bytes"
	"io"
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
		{Row: 1 << 20, Write: false, GapInstr: 1 << 40},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	recs := sample()
	w, err := NewWriter(&buf, int64(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().Records != int64(len(recs)) {
		t.Fatalf("header records = %d", r.Header().Records)
	}
	for i, want := range recs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
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
		var buf bytes.Buffer
		w, err := NewWriter(&buf, int64(len(recs)))
		if err != nil {
			return false
		}
		for _, r := range recs {
			if w.Append(r) != nil {
				return false
			}
		}
		if w.Close() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, want := range recs {
			got, err := r.Read()
			if err != nil || got != want {
				return false
			}
		}
		_, err = r.Read()
		return err == io.EOF
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterCountEnforced(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2)
	w.Append(Record{Row: 1})
	if err := w.Close(); err == nil {
		t.Fatal("close accepted short trace")
	}
	w2, _ := NewWriter(&buf, 1)
	w2.Append(Record{Row: 1})
	if err := w2.Append(Record{Row: 2}); err == nil {
		t.Fatal("append past declared count accepted")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("not a trace at all")); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
	if _, err := NewReader(strings.NewReader("xy")); err == nil {
		t.Fatal("short header accepted")
	}
	// Valid header, truncated body.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 2)
	w.Append(Record{Row: 5})
	w.w.Flush() // deliberately skip Close: body is short
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != ErrTruncated {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}

func TestStreamAdapter(t *testing.T) {
	var buf bytes.Buffer
	recs := sample()
	w, _ := NewWriter(&buf, int64(len(recs)))
	for _, r := range recs {
		w.Append(r)
	}
	w.Close()
	r, _ := NewReader(&buf)
	n := 0
	for {
		req, ok := r.Next()
		if !ok {
			break
		}
		if req.Row != recs[n].Row || req.Write != recs[n].Write {
			t.Fatalf("stream record %d mismatch", n)
		}
		n++
	}
	if n != len(recs) || r.Err() != nil {
		t.Fatalf("n=%d err=%v", n, r.Err())
	}
}

func TestCaptureWorkloadAndReplay(t *testing.T) {
	// Record a workload generator stream, replay it, and check the replay
	// is bit-identical to a second generation.
	spec, _ := workload.ByName("gcc")
	region := workload.Region{
		Geom: dram.Geometry{Banks: 4, RowsPerBank: 1024, RowBytes: 1024, LineBytes: 64},
	}
	gen := workload.NewGenerator(spec, region, 0, 7, workload.Params{})

	var buf bytes.Buffer
	n, err := Capture(&buf, gen.Stream(500, 3), 0)
	if err != nil || n != 500 {
		t.Fatalf("capture: n=%d err=%v", n, err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh := gen.Stream(500, 3)
	for i := 0; i < 500; i++ {
		got, ok1 := r.Next()
		want, ok2 := fresh.Next()
		if !ok1 || !ok2 || got != want {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, got, want)
		}
	}
}

func TestCaptureLimit(t *testing.T) {
	recs := sample()
	var buf bytes.Buffer
	n, err := Capture(&buf, NewSliceStream(recs), 2)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestCompressionRatio(t *testing.T) {
	// Locality-heavy streams must encode well below the naive 13-byte
	// fixed record.
	recs := make([]Record, 10000)
	for i := range recs {
		recs[i] = Record{Row: dram.Row(1000 + i%4), GapInstr: 158}
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, int64(len(recs)))
	for _, r := range recs {
		w.Append(r)
	}
	w.Close()
	perRecord := float64(buf.Len()-16) / float64(len(recs))
	if perRecord > 6 {
		t.Fatalf("%.1f bytes/record, want <= 6", perRecord)
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
