package sim

import (
	"testing"

	"repro/internal/dram"
)

// TestRRSViolationIsItsOwnSwaps pins why RRS fails the security monitor at
// T_RH 64, above sim.CheckTRH's floor of 42: most ACTs on the monitor's
// peak row come from RRS's own swaps, not from the workload. A re-swap
// first dissolves the old pair, which streams the hot row's home row, and
// mitigating whatever row occupies that home swaps the hot row back into
// it (the 4x case in the rrs package doc), so hot rows keep returning to
// the same physical rows. This is the traffic the Juggernaut attack on
// RRS (Woo, Saileshwar and Nair, HPCA 2023) exploits. At T_RH 1000 the
// same run holds.
//
// The split relies on the rank's counters: a request's ACT follows the row
// miss Access counts just before it, while StreamRow, which commits every
// ACT RRS makes inside OnActivate, counts no miss.
func TestRRSViolationIsItsOwnSwaps(t *testing.T) {
	// run simulates 4 lbm cores at the threshold and returns the result,
	// the monitor's peak row and each row's ACTs from swaps and requests.
	run := func(trh int64) (res Result, peak dram.Row, own, demand map[dram.Row]int) {
		cfg := fastCfg(SchemeRRS)
		cfg.TRH = trh
		sys := NewSystem(cfg, specStreams(t, "lbm", 20000))
		own, demand = map[dram.Row]int{}, map[dram.Row]int{}
		var misses int64
		sys.Rank.Listen(func(row dram.Row, _ dram.PS) {
			if m := sys.Rank.Stats().RowMisses; m != misses {
				misses = m
				demand[row]++
			} else {
				own[row]++
			}
		})
		res = sys.Run(0)
		peak, _ = sys.Monitor.MaxWindowCount()
		return res, peak, own, demand
	}

	res, peak, own, demand := run(64)
	t.Logf("T_RH 64: violated %v; peak row %d took %d ACTs in one window, and over the run %d from swaps and %d from requests; %d mitigations",
		res.Violated, peak, res.MaxWindowACTs, own[peak], demand[peak], res.MitStats.Mitigations)
	if !res.Violated {
		t.Fatal("T_RH 64: no violation; the run no longer shows what this test explains")
	}
	if own[peak] <= demand[peak] {
		t.Fatalf("T_RH 64: the peak row took %d ACTs from swaps and %d from requests; want the swaps' share larger",
			own[peak], demand[peak])
	}

	res, _, own, demand = run(1000)
	t.Logf("T_RH 1000: violated %v; row %d took %d ACTs from swaps and %d from requests; %d mitigations",
		res.Violated, peak, own[peak], demand[peak], res.MitStats.Mitigations)
	if res.Violated {
		t.Fatalf("T_RH 1000: violated, peak %d ACTs in a window", res.MaxWindowACTs)
	}
}
