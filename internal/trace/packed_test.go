package trace

import (
	"math"
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

func TestPackedReplayMatchesGenerator(t *testing.T) {
	want := genRecords(t, 50_000, 42)
	p := PackStream(NewSliceStream(want), 0)
	if p.Len() != int64(len(want)) {
		t.Fatalf("packed %d records, want %d", p.Len(), len(want))
	}
	sameRecords(t, drain(t, p.Stream()), want, "packed replay")
	// Cursors are independent: a second replay sees the same records.
	sameRecords(t, drain(t, p.Stream()), want, "second packed replay")
}

// TestPackedGapOverflow pins the uint32 gap column: the largest gap that
// fits replays exactly, and a gap outside [0, 2^32) panics at Append
// instead of replaying wrong.
func TestPackedGapOverflow(t *testing.T) {
	recs := []Record{
		{Row: 5, GapInstr: 100},
		{Row: 9, Write: true, GapInstr: math.MaxUint32},
		{Row: 2, GapInstr: 0},
	}
	p := &Packed{}
	for _, r := range recs {
		p.Append(r)
	}
	sameRecords(t, drain(t, p.Stream()), recs, "uint32-limit replay")

	for _, gap := range []int64{math.MaxUint32 + 1, math.MaxInt64 >> 2, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append accepted gap %d", gap)
				}
			}()
			(&Packed{}).Append(Record{Row: 1, GapInstr: gap})
		}()
	}
}
