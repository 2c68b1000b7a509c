// Full-window cell budget: one complete 64ms refresh-window simulation —
// the unit of work every figure grid decomposes into — must stay under a
// wall-clock budget, so grid regeneration time stays bounded as the
// simulator grows. `make bench-full` runs the gated budget test.
package repro

import (
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runFullWindowCell simulates one full 64ms-window cell (lbm under AQUA
// memory-mapped at T_RH=1000, 4 cores) and returns the wall-clock it took.
func runFullWindowCell(tb testing.TB) time.Duration {
	spec, ok := workload.ByName("lbm")
	if !ok {
		tb.Fatal("lbm spec missing")
	}
	cfg := sim.Config{Scheme: sim.SchemeAquaMemMapped, TRH: 1000, Cores: 4, Seed: 0x41515541}
	region := sim.VisibleRegion(cfg)
	window := 64 * dram.Millisecond
	params := workload.Params{EpochLength: dram.DDR4().TREFW, NominalIPC: 0.3, Cores: 4}
	windowInstr := float64(window) / 1e12 * 3e9 * params.NominalIPC
	reqs := int64(windowInstr*spec.MPKI/1000) + 16
	streams := make([]cpu.Stream, 4)
	for i := 0; i < 4; i++ {
		gen := workload.NewGenerator(spec, region, i, cfg.Seed, params)
		streams[i] = gen.Stream(reqs, cfg.Seed+uint64(i)*7919)
	}
	sys := sim.NewSystem(cfg, streams)
	start := time.Now()
	res := sys.Run(0)
	el := time.Since(start)
	tb.Logf("full cell: %s wall, %d requests, simtime %.1fms", el, res.Requests, float64(res.SimTime)/1e9)
	return el
}

// TestFullWindowCellBudget asserts the wall-clock budget for one full
// 64ms-window cell. It only runs with REPRO_BENCH_FULL=1 (set by `make
// bench-full` and the CI benchmark smoke) because wall-clock assertions
// are meaningless on arbitrarily loaded developer machines; the budget
// defaults to 750ms (tightened from 1000ms with the blocked-bank overlap
// scheduler and hot-path flattening) and can be adjusted per host with
// REPRO_BENCH_FULL_BUDGET_MS — CI pins 2000ms to absorb shared-runner
// noise.
func TestFullWindowCellBudget(t *testing.T) {
	if os.Getenv("REPRO_BENCH_FULL") != "1" {
		t.Skip("set REPRO_BENCH_FULL=1 (or run `make bench-full`) to assert the full-cell wall-clock budget")
	}
	budget := 750 * time.Millisecond
	if v := os.Getenv("REPRO_BENCH_FULL_BUDGET_MS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			budget = time.Duration(n) * time.Millisecond
		}
	}
	if el := runFullWindowCell(t); el > budget {
		t.Errorf("full 64ms-window cell took %s, budget %s (REPRO_BENCH_FULL_BUDGET_MS to adjust)", el, budget)
	}
}
