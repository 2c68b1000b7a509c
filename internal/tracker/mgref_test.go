package tracker

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
)

// denseMG is the test-only Misra-Gries reference: one dense counter per
// row (0 = untracked), the tracked rows of each bank in a plain slice, and
// a linear scan for the bank's (count, row) minimum. It states the
// specification the lazy heap and the row map must reproduce, with none
// of their machinery.
type denseMG struct {
	geom      dram.Geometry
	threshold int64
	capacity  int
	cnt       []int64
	tracked   [][]dram.Row
	spill     []int64
}

func newDenseMG(geom dram.Geometry, threshold int64, capacity int) *denseMG {
	return &denseMG{
		geom: geom, threshold: threshold, capacity: capacity,
		cnt:     make([]int64, geom.Rows()),
		tracked: make([][]dram.Row, geom.Banks),
		spill:   make([]int64, geom.Banks),
	}
}

func (d *denseMG) recordACT(row dram.Row) bool {
	if d.cnt[row] != 0 {
		d.cnt[row]++
		return d.cnt[row]%d.threshold == 0
	}
	b := d.geom.BankOf(row)
	if len(d.tracked[b]) < d.capacity {
		d.cnt[row] = d.spill[b] + 1
		d.tracked[b] = append(d.tracked[b], row)
		return d.cnt[row]%d.threshold == 0
	}
	d.spill[b]++
	lo := 0
	for i, r := range d.tracked[b] {
		m := d.tracked[b][lo]
		if d.cnt[r] < d.cnt[m] || (d.cnt[r] == d.cnt[m] && r < m) {
			lo = i
		}
	}
	victim := d.tracked[b][lo]
	if d.spill[b] < d.cnt[victim] {
		return false
	}
	d.spill[b], d.cnt[row] = d.cnt[victim], d.spill[b]
	d.cnt[victim] = 0
	d.tracked[b][lo] = row
	return d.cnt[row]%d.threshold == 0
}

func (d *denseMG) reset() {
	clear(d.cnt)
	clear(d.spill)
	for b := range d.tracked {
		d.tracked[b] = d.tracked[b][:0]
	}
}

// TestMisraGriesMatchesDenseReference runs random ACT streams and epoch
// resets through MisraGries and the dense reference. Hot rows cross small
// thresholds often and cold rows churn the tables through the spill-swap
// path. Even trials draw tiny capacities, which keep every bank full; odd
// ones draw up to twice a bank's rows, so the tables grow through several
// doublings, some to the whole bank. A Reset at step 1000, besides the
// random ones, makes every trial refill grown tables. After every step
// the flag, every row's estimate and every bank's spill must agree, and
// the tracker must pass CheckConsistency.
func TestMisraGriesMatchesDenseReference(t *testing.T) {
	geom := dram.Geometry{Banks: 3, RowsPerBank: 40, RowBytes: 1024, LineBytes: 64}
	for trial := 0; trial < 60; trial++ {
		r := rng.New(uint64(trial) + 1)
		threshold := int64(1 + r.Intn(12))
		capacity := 1 + r.Intn(8)
		if trial%2 == 1 {
			capacity = 1 + r.Intn(2*geom.RowsPerBank)
		}
		mg := NewMisraGries(geom, threshold, capacity)
		ref := newDenseMG(geom, threshold, capacity)
		hot := make([]dram.Row, 1+r.Intn(6))
		for i := range hot {
			hot[i] = dram.Row(r.Intn(geom.Rows()))
		}
		for step := 0; step < 1500; step++ {
			switch op := r.Intn(1000); {
			case op < 2 || step == 1000:
				mg.Reset()
				ref.reset()
			default:
				row := dram.Row(r.Intn(geom.Rows()))
				if op < 600 {
					row = hot[r.Intn(len(hot))]
				}
				if got, want := mg.RecordACT(row), ref.recordACT(row); got != want {
					t.Fatalf("trial %d step %d: RecordACT(%d) = %v, reference %v", trial, step, row, got, want)
				}
			}
			for row := 0; row < geom.Rows(); row++ {
				if got, want := mg.EstimatedCount(dram.Row(row)), ref.cnt[row]; got != want {
					t.Fatalf("trial %d step %d: EstimatedCount(%d) = %d, reference %d", trial, step, row, got, want)
				}
			}
			for b := 0; b < geom.Banks; b++ {
				if got, want := mg.Spill(b), ref.spill[b]; got != want {
					t.Fatalf("trial %d step %d: Spill(%d) = %d, reference %d", trial, step, b, got, want)
				}
			}
			if err := mg.CheckConsistency(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}
