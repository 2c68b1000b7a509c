package core

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/memctrl"
	"repro/internal/tracker"
)

// FuzzCore drives the AQUA engine through a memory controller with a
// byte-coded operation sequence — hammer bursts on fuzzer-chosen rows,
// epoch rolls, idle drains — and checks the structural invariants after
// every step, both through the runtime invariant checker and the full
// CheckInvariants sweep. The controller feeds the engine every ACT the
// rank commits, its own migrations' and table walks' included, so bursts
// reach cascades and hammered RQA slots. This is the adversarial-scheduler
// counterpart to the randomized property test.
func FuzzCore(f *testing.F) {
	f.Add([]byte{0x10, 0x20, 0xFF, 0x30, 0x01})
	f.Add([]byte{0xFE, 0x00, 0xFE, 0x00})
	f.Add([]byte{})

	geom := dram.Geometry{Banks: 4, RowsPerBank: 128, RowBytes: 1024, LineBytes: 64}
	// The controller's epoch and idle-drain periods; an epoch or drain op
	// idles until the next boundary of its kind.
	const (
		epoch = 500 * dram.Microsecond
		drain = 50 * dram.Microsecond
	)

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		for _, mode := range []Mode{ModeSRAM, ModeMemMapped} {
			chk := invariant.New()
			rank := dram.NewRank(geom, dram.DDR4())
			eng := New(rank, Config{
				TRH:            16,
				Mode:           mode,
				RQARows:        12,
				Tracker:        tracker.NewExact(geom, 8),
				ProactiveDrain: true,
				Invariants:     chk,
			})
			c := memctrl.New(rank, eng, memctrl.Config{
				EpochLength:       epoch,
				IdleDrainInterval: drain,
				Invariants:        chk,
			})
			at := dram.PS(0)
			visible := eng.VisibleRowsPerBank()
			for _, op := range ops {
				switch {
				case op == 0xFF:
					at = (at/epoch + 1) * epoch
					c.Advance(at)
				case op == 0xFE:
					at = (at/drain + 1) * drain
					c.Advance(at)
				default:
					// Hammer a derived row for a derived burst length. A
					// row-buffer hit makes no ACT, so each access to the row
					// alternates with one to another row of the bank the row
					// lives in now, its RQA slot's bank once quarantined.
					row := geom.RowOf(int(op)%geom.Banks, int(op>>2)%visible)
					other := (int(op>>2) + visible/2) % visible
					burst := int(op%13) + 1
					for i := 0; i < burst; i++ {
						at = c.Submit(row, false, at)
						at = c.Submit(geom.RowOf(geom.BankOf(eng.physRow(row)), other), false, at)
					}
				}
				at += dram.Microsecond
				if err := eng.CheckInvariants(); err != nil {
					t.Fatalf("mode %v after op %#x: %v", mode, op, err)
				}
				if err := chk.Err(); err != nil {
					t.Fatalf("mode %v after op %#x: %v", mode, op, err)
				}
			}
		}
	})
}
