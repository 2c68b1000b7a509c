package sim

import (
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
)

// TestSystemFootprint bounds the bytes NewSystem allocates for every cell
// of the paper grid at the paper geometry, measured as the TotalAlloc
// delta across the call. Per-row simulator state is sized by its live
// entries, so the ceilings sit well below one dense array over the rank's
// 2M rows (4-8 MiB): a reintroduced one fails here instead of silently
// growing every cell of every grid. AQUA's forward map, RRS's partner
// map and every bank's Misra-Gries table start empty and grow as entries
// land. What remains is provisioned state: AQUA's RPT, plus the bloom
// filter under memory-mapped tables or the forward map's 256 KiB of
// presence bits under SRAM tables. Each memory-mapped ceiling sits less
// than 256 KiB above its cell, so a per-row bit array added there fails.
// The schemes without AQUA's tables allocate little more than bank
// headers. The grid's total has its own ceiling.
func TestSystemFootprint(t *testing.T) {
	const mib, gridCeiling = 1 << 20, 2.375
	total := 0.0
	for _, c := range []struct {
		scheme  Scheme
		trh     int64
		ceiling float64 // MiB
	}{
		{SchemeBaseline, 1000, 0.0625},
		{SchemeAquaSRAM, 1000, 0.625},
		{SchemeAquaMemMapped, 2000, 0.625},
		{SchemeAquaMemMapped, 1000, 0.75},
		{SchemeAquaMemMapped, 500, 0.875},
		{SchemeRRS, 4000, 0.0625},
		{SchemeRRS, 2000, 0.0625},
		{SchemeRRS, 1000, 0.0625},
		{SchemeBlockhammer, 1000, 0.0625},
		{SchemeVictimRefresh, 1000, 0.0625},
	} {
		cfg := Config{Scheme: c.scheme, TRH: c.trh, Cores: 4}
		streams := make([]cpu.Stream, cfg.Cores)
		for i := range streams {
			streams[i] = &pairStream{left: 8, row: dram.Row(2 * i)}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys := NewSystem(cfg, streams)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sys)
		got := float64(after.TotalAlloc-before.TotalAlloc) / mib
		total += got
		t.Logf("%-15v T_RH %4d %5.2f MiB (ceiling %g MiB)", c.scheme, c.trh, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%v at T_RH %d: NewSystem allocated %.2f MiB, ceiling %g MiB", c.scheme, c.trh, got, c.ceiling)
		}
	}
	t.Logf("all cells %5.2f MiB (ceiling %g MiB)", total, gridCeiling)
	if total > gridCeiling {
		t.Errorf("NewSystem allocated %.2f MiB over the grid, ceiling %g MiB", total, gridCeiling)
	}
}
