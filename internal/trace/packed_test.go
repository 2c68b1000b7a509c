package trace

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/workload"
)

// genRecords synthesizes n records of a real workload stream (gcc on
// core 0) so the packing is exercised by the distribution it will
// actually carry.
func genRecords(t testing.TB, n int64, seed uint64) []Record {
	t.Helper()
	spec, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("gcc spec missing")
	}
	gen := workload.NewGenerator(spec, workload.Region{Geom: dram.Baseline()}, 0, seed, workload.Params{})
	return drain(t, gen.Stream(n, seed))
}

func drain(t testing.TB, s cpu.Stream) []Record {
	t.Helper()
	var recs []Record
	for {
		req, ok := s.Next()
		if !ok {
			break
		}
		recs = append(recs, Record{Row: req.Row, Write: req.Write, GapInstr: req.GapInstr})
	}
	return recs
}

func sameRecords(t *testing.T, got, want []Record, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// packAndCheck packs recs under limit and requires the replay to return
// the first limit records exactly, each column to take the fewest whole
// bytes that hold its range, every column's capacity to equal its
// length, Bytes to count exactly the widths, the pad bytes and the
// bitset, and the file form to give back the same Packed.
func packAndCheck(t *testing.T, recs []Record, limit int64) *Packed {
	t.Helper()
	want := recs[:min(limit, int64(len(recs)))]
	p := PackStream(NewSliceStream(recs), limit)
	sameRecords(t, drain(t, p.Stream()), want, "packed replay")
	n := int64(len(want))
	if p.Len() != n {
		t.Fatalf("Len = %d, want %d", p.Len(), n)
	}
	var rows, gaps []uint32
	for _, r := range want {
		rows = append(rows, uint32(r.Row))
		gaps = append(gaps, uint32(r.GapInstr))
	}
	for _, c := range []struct {
		name string
		col  column
		vals []uint32
	}{{"row", p.rows, rows}, {"gap", p.gaps, gaps}} {
		if w := widthFor(c.vals); c.col.width != w {
			t.Fatalf("%s column is %d bytes wide, want %d", c.name, c.col.width, w)
		}
		if cap(c.col.data) != len(c.col.data) {
			t.Fatalf("%s column: cap %d, len %d", c.name, cap(c.col.data), len(c.col.data))
		}
	}
	if words := (n + 63) / 64; int64(len(p.writes)) != words || cap(p.writes) != len(p.writes) {
		t.Fatalf("write bitset: len %d, cap %d, want both %d", len(p.writes), cap(p.writes), words)
	}
	bitset := 8 * ((n + 63) / 64)
	if want := n*int64(p.rows.width+p.gaps.width) + 2*columnPad + bitset; p.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", p.Bytes(), want)
	}
	fileRoundTrip(t, p)
	return p
}

// widthFor is the reference column width: the fewest whole bytes that
// hold the values' range.
func widthFor(vals []uint32) int {
	if len(vals) == 0 {
		return 1
	}
	switch span := slices.Max(vals) - slices.Min(vals); {
	case span < 1<<8:
		return 1
	case span < 1<<16:
		return 2
	case span < 1<<24:
		return 3
	}
	return 4
}

// spread returns n records whose rows cover [row[0], row[1]] and whose
// gaps cover [gap[0], gap[1]], both ends included once n >= 2.
func spread(n int, row, gap [2]uint32) []Record {
	pick := func(r [2]uint32, k int) uint32 {
		return [3]uint32{r[0], r[1], r[0] + (r[1]-r[0])/2}[k%3]
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Row: dram.Row(pick(row, i)), Write: i%5 == 1, GapInstr: int64(pick(gap, i+1))}
	}
	return recs
}

// packedCase is a stream whose row and gap ranges sit on a column width
// boundary, and the widths it must pack into.
type packedCase struct {
	name       string
	n          int
	limit      int64 // 0: the stream's length
	row, gap   [2]uint32
	rowW, gapW int
}

func (tc packedCase) records() []Record { return spread(tc.n, tc.row, tc.gap) }

func (tc packedCase) packLimit() int64 {
	if tc.limit == 0 {
		return int64(tc.n)
	}
	return tc.limit
}

const top = math.MaxUint32

// packedCases put both columns' ranges on every width boundary, and seed
// FuzzPackedRoundTrip.
var packedCases = []packedCase{
	{name: "constant", n: 130, row: [2]uint32{0, 0}, gap: [2]uint32{0, 0}, rowW: 1, gapW: 1},
	{name: "range 255", n: 130, row: [2]uint32{0, 255}, gap: [2]uint32{0, 255}, rowW: 1, gapW: 1},
	{name: "range 256", n: 130, row: [2]uint32{0, 256}, gap: [2]uint32{0, 256}, rowW: 2, gapW: 2},
	{name: "range 65535", n: 130, row: [2]uint32{0, 1<<16 - 1}, gap: [2]uint32{0, 1<<16 - 1}, rowW: 2, gapW: 2},
	{name: "range 65536", n: 130, row: [2]uint32{0, 1 << 16}, gap: [2]uint32{0, 1 << 16}, rowW: 3, gapW: 3},
	{name: "range 2^24-1", n: 130, row: [2]uint32{0, 1<<24 - 1}, gap: [2]uint32{0, 1<<24 - 1}, rowW: 3, gapW: 3},
	{name: "range 2^24", n: 130, row: [2]uint32{0, 1 << 24}, gap: [2]uint32{0, 1 << 24}, rowW: 4, gapW: 4},
	{name: "range 2^32-1", n: 130, row: [2]uint32{0, top}, gap: [2]uint32{0, top}, rowW: 4, gapW: 4},
	{name: "non-zero minimum", n: 130, row: [2]uint32{1_000_000, 1_000_255}, gap: [2]uint32{70_000, 70_000 + 1<<16}, rowW: 1, gapW: 3},
	{name: "top of range", n: 130, row: [2]uint32{top - 255, top}, gap: [2]uint32{top - 1<<16, top}, rowW: 1, gapW: 3},
	{name: "one record", n: 1, row: [2]uint32{123_456, 123_456}, gap: [2]uint32{42, 42}, rowW: 1, gapW: 1},
	{name: "empty", n: 0, rowW: 1, gapW: 1},
	{name: "limit shorter than the stream", n: 130, limit: 70, row: [2]uint32{0, 1 << 16}, gap: [2]uint32{3, 258}, rowW: 3, gapW: 1},
	{name: "stream shorter than the limit", n: 70, limit: 200, row: [2]uint32{9, 9 + 1<<8}, gap: [2]uint32{0, 1<<24 - 1}, rowW: 2, gapW: 3},
}

// TestPackedColumnWidths packs every packedCase and replays it record
// for record.
func TestPackedColumnWidths(t *testing.T) {
	for _, tc := range packedCases {
		t.Run(tc.name, func(t *testing.T) {
			p := packAndCheck(t, tc.records(), tc.packLimit())
			if p.rows.width != tc.rowW || p.gaps.width != tc.gapW {
				t.Fatalf("widths %d/%d, want %d/%d", p.rows.width, p.gaps.width, tc.rowW, tc.gapW)
			}
		})
	}
}

func TestPackedReplayMatchesGenerator(t *testing.T) {
	want := genRecords(t, 50_000, 42)
	p := packAndCheck(t, want, int64(len(want)))
	// Cursors are independent: a second replay sees the same records.
	sameRecords(t, drain(t, p.Stream()), want, "second packed replay")
}

// TestPackedFootprint pins the trace tier's bytes per record on real
// streams. A 4 ms lbm or gcc capture, among the workloads that produce
// most of the tier's records, spans more than 2^16 rows and gaps within
// a 256-instruction range: 3-byte rows, 1-byte gaps and the write
// bitset, or 4.125 B/record plus the pad.
func TestPackedFootprint(t *testing.T) {
	const seed = 0x41515541
	for _, name := range []string{"lbm", "gcc"} {
		spec, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("%s spec missing", name)
		}
		// The Runner's request budget for one core over a 4 ms window
		// at nominal IPC 1.0.
		reqs := int64(4e-3*cpu.FreqHz*spec.MPKI/1000) + 16
		gen := workload.NewGenerator(spec, workload.Region{Geom: dram.Baseline()}, 0, seed, workload.Params{})
		p := packAndCheck(t, drain(t, gen.Stream(reqs, seed)), reqs)
		if p.rows.width != 3 || p.gaps.width != 1 {
			t.Fatalf("%s: %d-byte rows and %d-byte gaps, want 3 and 1", name, p.rows.width, p.gaps.width)
		}
		t.Logf("%s: %d records, %d B, %.3f B/record", name, p.Len(), p.Bytes(), float64(p.Bytes())/float64(p.Len()))
	}
}

// TestPackedGapOverflow pins the gap column's bound: the largest gap that
// fits replays exactly, and a gap outside [0, 2^32) panics at PackStream
// instead of replaying wrong.
func TestPackedGapOverflow(t *testing.T) {
	recs := []Record{
		{Row: 5, GapInstr: 100},
		{Row: 9, Write: true, GapInstr: math.MaxUint32},
		{Row: 2, GapInstr: 0},
	}
	p := PackStream(NewSliceStream(recs), int64(len(recs)))
	sameRecords(t, drain(t, p.Stream()), recs, "uint32-limit replay")

	for _, gap := range []int64{math.MaxUint32 + 1, math.MaxInt64 >> 2, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PackStream accepted gap %d", gap)
				}
			}()
			PackStream(NewSliceStream([]Record{{Row: 1, GapInstr: gap}}), 1)
		}()
	}
}
