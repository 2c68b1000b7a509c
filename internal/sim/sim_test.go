package sim

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/workload"
)

// fastCfg uses a 2ms window so tests stay quick; geometry stays the
// baseline so the engines' layout math is exercised for real.
func fastCfg(scheme Scheme) Config {
	return Config{TRH: 1000, Scheme: scheme, Monitor: true}
}

func xzStreams(t *testing.T, reqs int64) []cpu.Stream {
	t.Helper()
	spec, ok := workload.ByName("xz")
	if !ok {
		t.Fatal("xz spec missing")
	}
	region := VisibleRegion(Config{})
	return WorkloadStreams(spec, region, 4, reqs, 1, workload.Params{})
}

func TestSchemeStrings(t *testing.T) {
	names := map[Scheme]string{
		SchemeBaseline:      "baseline",
		SchemeAquaSRAM:      "aqua-sram",
		SchemeAquaMemMapped: "aqua-memmapped",
		SchemeRRS:           "rrs",
		SchemeBlockhammer:   "blockhammer",
		SchemeVictimRefresh: "victim-refresh",
		Scheme(99):          "unknown",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d -> %q", s, s.String())
		}
	}
}

func TestVisibleRegionReservesRows(t *testing.T) {
	region := VisibleRegion(Config{})
	if region.VisibleRowsPerBank <= 0 ||
		region.VisibleRowsPerBank >= dram.Baseline().RowsPerBank {
		t.Fatalf("visible rows/bank = %d", region.VisibleRowsPerBank)
	}
}

func TestRunCompletesAndReports(t *testing.T) {
	sys := NewSystem(fastCfg(SchemeBaseline), xzStreams(t, 2000))
	res := sys.Run(0)
	if res.Requests != 4*2000 {
		t.Fatalf("requests = %d", res.Requests)
	}
	if res.IPC <= 0 {
		t.Fatalf("IPC = %g", res.IPC)
	}
	if res.SimTime <= 0 {
		t.Fatal("no simulated time")
	}
	if res.Violated {
		t.Fatal("xz violated T_RH=1000 in a tiny run")
	}
}

func TestRunUntilBoundsTime(t *testing.T) {
	sys := NewSystem(fastCfg(SchemeBaseline), xzStreams(t, 1_000_000))
	res := sys.Run(1 * dram.Millisecond)
	if res.SimTime > 1*dram.Millisecond {
		t.Fatalf("sim time %d exceeded bound", res.SimTime)
	}
	if res.Requests == 0 {
		t.Fatal("nothing ran")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		sys := NewSystem(fastCfg(SchemeAquaMemMapped), xzStreams(t, 3000))
		return sys.Run(0)
	}
	a, b := run(), run()
	if a.SimTime != b.SimTime || a.IPC != b.IPC ||
		a.MitStats.Mitigations != b.MitStats.Mitigations {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestAllSchemesConstruct(t *testing.T) {
	for _, s := range []Scheme{
		SchemeBaseline, SchemeAquaSRAM, SchemeAquaMemMapped,
		SchemeRRS, SchemeBlockhammer, SchemeVictimRefresh,
	} {
		sys := NewSystem(fastCfg(s), xzStreams(t, 200))
		res := sys.Run(0)
		if res.Requests == 0 {
			t.Errorf("%s: no requests", s)
		}
		if s == SchemeAquaSRAM || s == SchemeAquaMemMapped {
			if sys.Aqua == nil {
				t.Errorf("%s: Aqua engine not exposed", s)
			}
		}
	}
}

func TestStreamCountMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSystem(fastCfg(SchemeBaseline), xzStreams(t, 10)[:2])
}

func TestCaseNames(t *testing.T) {
	all := AllCaseNames()
	if len(all) != 34 {
		t.Fatalf("%d cases, want 34", len(all))
	}
	if len(SPECCaseNames()) != 18 {
		t.Fatal("SPEC case count")
	}
	if all[0] != "lbm" || all[18] != "mix01" {
		t.Fatalf("ordering: %v", all[:20])
	}
}

func TestCaseSpecsResolvesMixes(t *testing.T) {
	specs, err := caseSpecs("mix03")
	if err != nil || len(specs) != 4 {
		t.Fatalf("mix03: %v, %v", specs, err)
	}
	if _, err := caseSpecs("nope"); err == nil {
		t.Fatal("ghost workload resolved")
	}
}

func TestRunnerGridSmallWindow(t *testing.T) {
	r := NewRunner(ExpConfig{Window: 500 * dram.Microsecond, Calibrate: false})
	grid, err := r.RunGrid([]string{"xz", "wrf"}, []GridCell{
		{Scheme: SchemeAquaMemMapped, TRH: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 2 || len(grid[0].Cells) != 1 {
		t.Fatalf("grid shape: %+v", grid)
	}
	for _, g := range grid {
		c := g.Cells[0]
		if c.NormIPC <= 0 || c.NormIPC > 1.2 {
			t.Errorf("%s norm IPC = %g", g.Workload, c.NormIPC)
		}
	}
}

func TestRunnerSingleRun(t *testing.T) {
	r := NewRunner(ExpConfig{Window: 500 * dram.Microsecond, Calibrate: false})
	run, err := r.Run("xz", SchemeBaseline, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if run.NormIPC != 1 {
		t.Fatalf("baseline norm = %g", run.NormIPC)
	}
	if _, err := r.Run("ghost", SchemeRRS, 1000); err == nil {
		t.Fatal("ghost workload ran")
	}
}

func TestRowTierCounts(t *testing.T) {
	r := NewRunner(ExpConfig{Window: 2 * dram.Millisecond, Calibrate: false})
	counts, err := r.RowTierCounts("gcc", []int64{166, 500, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if counts[166] < counts[500] || counts[500] < counts[1000] {
		t.Fatalf("tier counts not cumulative: %v", counts)
	}
	if counts[166] == 0 {
		t.Fatal("gcc produced no 166+ rows")
	}
}

func TestBreakdownSumsToOne(t *testing.T) {
	sys := NewSystem(fastCfg(SchemeAquaMemMapped), xzStreams(t, 3000))
	res := sys.Run(0)
	bd := BreakdownOf(res)
	sum := bd.BloomFiltered + bd.CacheHit + bd.Singleton + bd.DRAM
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("breakdown sums to %g", sum)
	}
}

func TestTrackerKindsRun(t *testing.T) {
	for _, kind := range []TrackerKind{TrackerMisraGries, TrackerHydra, TrackerExact} {
		cfg := fastCfg(SchemeAquaMemMapped)
		cfg.Tracker = kind
		sys := NewSystem(cfg, xzStreams(t, 500))
		res := sys.Run(0)
		if res.Requests == 0 {
			t.Errorf("tracker %d: no requests", kind)
		}
		if res.Violated {
			t.Errorf("tracker %d: violated", kind)
		}
	}
}

func TestStructureOverridesApply(t *testing.T) {
	cfg := fastCfg(SchemeAquaMemMapped)
	cfg.BloomGroupSize = 32
	cfg.FPTCacheEntries = 2048
	sys := NewSystem(cfg, xzStreams(t, 200))
	if sys.Aqua.BloomFilter().GroupSize() != 32 {
		t.Fatal("bloom group override ignored")
	}
	sys.Run(0)
}

func TestRunVariantNormalizes(t *testing.T) {
	r := NewRunner(ExpConfig{Window: 500 * dram.Microsecond, Calibrate: false})
	run, err := r.RunVariant("xz", SchemeAquaMemMapped, 1000, Config{BloomGroupSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if run.NormIPC <= 0 || run.NormIPC > 1.2 {
		t.Fatalf("norm IPC = %g", run.NormIPC)
	}
}

func TestDRAMPowerReported(t *testing.T) {
	sys := NewSystem(fastCfg(SchemeBaseline), xzStreams(t, 2000))
	res := sys.Run(0)
	if res.DRAMPowerMW <= 0 {
		t.Fatalf("DRAM power = %g", res.DRAMPowerMW)
	}
}

func TestCoRunReportsAllLegs(t *testing.T) {
	spec, _ := workload.ByName("xz")
	res, err := CoRun(SchemeAquaSRAM, 1000, spec, 300*dram.Microsecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.SoloVictimIPC <= 0 || res.BaselineVictimIPC <= 0 || res.VictimIPC <= 0 {
		t.Fatalf("degenerate: %+v", res)
	}
	if res.Scheme != SchemeAquaSRAM {
		t.Fatal("scheme not recorded")
	}
	if _, err := CoRun(SchemeAquaSRAM, 1000, spec, 0, 3); err == nil {
		t.Fatal("zero window accepted")
	}
}

// TestCoRunFullWindowMonitor runs the Section VI-C co-run over a full
// 64 ms window with the security monitor attached. Cross-bank ACTs reach
// the monitor slightly out of timestamp order, and at this seed one of
// them straddles the monitor's 32 ms half-window roll; the run must
// complete, and AQUA must keep every row under T_RH.
func TestCoRunFullWindowMonitor(t *testing.T) {
	spec, _ := workload.ByName("gcc")
	res, err := CoRun(SchemeAquaMemMapped, 1000, spec, 64*dram.Millisecond, 801)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Fatalf("AQUA co-run violated T_RH: %+v", res)
	}
}
