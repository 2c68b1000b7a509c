// Full-window cell budget: one complete 64ms refresh-window simulation —
// the unit of work every figure grid decomposes into — must stay under a
// wall-clock budget, so grid regeneration time stays bounded as the
// simulator grows, and must reproduce aquabench's committed cell_lbm64
// digest. `make bench-full` runs the gated budget test.
package repro

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchDigests holds aquabench's committed output digests, one
// "<workload> <seed> <sha256>" line each.
const benchDigests = "bench/aquabench/testdata/digests.txt"

// runFullWindowCell simulates one full 64ms-window cell (lbm under AQUA
// memory-mapped at T_RH=1000, 4 cores), built exactly as aquabench's
// cell_lbm64 op builds it at the default seed. It returns the wall-clock
// the run took and the op's output digest: a SHA-256 over the JSON
// sim.Result and the rank's RankStats, as aquabench hashes them.
func runFullWindowCell(tb testing.TB) (time.Duration, string) {
	spec, ok := workload.ByName("lbm")
	if !ok {
		tb.Fatal("lbm spec missing")
	}
	cfg := sim.Config{Scheme: sim.SchemeAquaMemMapped, TRH: 1000, Cores: 4, Seed: 0x41515541}
	region := sim.VisibleRegion(cfg)
	window := 64 * dram.Millisecond
	params := workload.Params{EpochLength: dram.DDR4().TREFW, NominalIPC: 0.3, Cores: 4}
	windowInstr := float64(window) / 1e12 * cpu.FreqHz * params.NominalIPC
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
	a, err := json.Marshal(res)
	if err != nil {
		tb.Fatal(err)
	}
	b, err := json.Marshal(sys.Rank.Stats())
	if err != nil {
		tb.Fatal(err)
	}
	sum := sha256.Sum256([]byte(string(a) + "\n" + string(b) + "\n"))
	return el, hex.EncodeToString(sum[:])
}

// TestFullWindowCellBudget asserts the wall-clock budget for one full
// 64ms-window cell and checks its output against aquabench's committed
// cell_lbm64 digest. It only runs with REPRO_BENCH_FULL=1 (set by `make
// bench-full` and the CI benchmark smoke) because wall-clock assertions
// are meaningless on arbitrarily loaded developer machines. The 750ms
// default was set on a faster host: on a 2-vCPU host this lbm cell has
// taken 0.74-1.50s wall (0.88-1.25 CPU-s), so a local `make bench-full`
// there fails more often than not without REPRO_BENCH_FULL_BUDGET_MS. CI
// pins 2000ms to absorb shared-runner noise.
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
	data, err := os.ReadFile(benchDigests)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "cell_lbm64" && f[1] == "0x41515541" {
			want = f[2]
		}
	}
	if want == "" {
		t.Fatalf("%s has no cell_lbm64 0x41515541 line", benchDigests)
	}
	el, got := runFullWindowCell(t)
	if got != want {
		t.Errorf("full cell digest %s, %s commits %s for cell_lbm64 0x41515541", got, benchDigests, want)
	}
	if el > budget {
		t.Errorf("full 64ms-window cell took %s, budget %s (REPRO_BENCH_FULL_BUDGET_MS to adjust)", el, budget)
	}
}
