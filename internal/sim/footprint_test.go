package sim

import (
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
)

// TestSystemFootprint bounds the bytes NewSystem allocates for each scheme
// at the paper geometry, measured as the TotalAlloc delta across the call.
// Per-row simulator state is sized by its live entries, so the ceilings
// sit well below one dense array over the rank's 2M rows (4-8 MiB): a
// reintroduced one fails here instead of silently growing every cell of
// every grid. What remains is provisioned state: the Misra-Gries tables,
// AQUA's translate bitmap and bloom filter, and RRS's RIT.
func TestSystemFootprint(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		scheme  Scheme
		ceiling uint64
	}{
		{SchemeBaseline, 1 * mib},
		{SchemeAquaSRAM, 4 * mib},
		{SchemeAquaMemMapped, 4 * mib},
		{SchemeRRS, 12 * mib},
		{SchemeBlockhammer, 1 * mib},
		{SchemeVictimRefresh, 3 * mib},
	} {
		cfg := Config{Scheme: c.scheme, TRH: 1000, Cores: 4}
		streams := make([]cpu.Stream, cfg.Cores)
		for i := range streams {
			streams[i] = &pairStream{left: 8, row: dram.Row(2 * i)}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys := NewSystem(cfg, streams)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sys)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%-15v %6.2f MiB (ceiling %d MiB)", c.scheme, float64(got)/mib, c.ceiling/mib)
		if got > c.ceiling {
			t.Errorf("%v: NewSystem allocated %.2f MiB, ceiling %d MiB", c.scheme, float64(got)/mib, c.ceiling/mib)
		}
	}
}
