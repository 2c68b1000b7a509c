package sim

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/rng"
	"repro/internal/workload"
)

// fastCfg uses a 2ms window so tests stay quick; geometry stays the
// baseline so the engines' layout math is exercised for real.
func fastCfg(scheme Scheme) Config {
	return Config{TRH: 1000, Scheme: scheme, Monitor: true}
}

func xzStreams(t *testing.T, reqs int64) []cpu.Stream { return specStreams(t, "xz", reqs) }

// specStreams returns four streams of the named workload, reqs requests
// each, seeded per core.
func specStreams(t *testing.T, name string, reqs int64) []cpu.Stream {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("%s spec missing", name)
	}
	region := VisibleRegion(Config{})
	streams := make([]cpu.Stream, 4)
	for i := range streams {
		gen := workload.NewGenerator(spec, region, i, 1, workload.Params{})
		streams[i] = gen.Stream(reqs, 1+uint64(i)*7919)
	}
	return streams
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
		// ParseScheme inverts String for every scheme and rejects the rest.
		got, err := ParseScheme(want)
		if s == Scheme(99) {
			if err == nil {
				t.Errorf("ParseScheme(%q) accepted", want)
			}
		} else if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", want, got, err, s)
		}
	}
}

// TestNewSystemERejectsThresholdBelowTwo: T_RH is checked after defaults,
// so 0 builds the default T_RH-1000 system while 1 and -5 are errors, not
// a panic in the monitor or a hang in the engine.
func TestNewSystemERejectsThresholdBelowTwo(t *testing.T) {
	for _, trh := range []int64{1, -5} {
		cfg := fastCfg(SchemeAquaMemMapped)
		cfg.TRH = trh
		if _, err := NewSystemE(cfg, xzStreams(t, 10)); err == nil {
			t.Errorf("NewSystemE accepted T_RH %d", trh)
		}
	}
	cfg := fastCfg(SchemeAquaMemMapped)
	cfg.TRH = 0
	sys, err := NewSystemE(cfg, xzStreams(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Cfg.TRH != 1000 {
		t.Fatalf("T_RH 0 defaulted to %d, want 1000", sys.Cfg.TRH)
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

// TestIssueNRunsTheRunLoop: IssueN runs the RunCtx loop under a request
// budget. Each call issues exactly its budget while requests remain, and
// a system driven to completion in IssueN slices ends in the same Result
// as one Run. The one-core row cycles budgets that straddle the context
// check interval. The 4-core rows issue one request per call, and each
// call reads every core's next-issue time afresh from the core, so
// matching one Run pins the times the loop writes back to System.next
// between requests. The drain row adds the controller's idle-drain
// events to refresh and epoch.
func TestIssueNRunsTheRunLoop(t *testing.T) {
	for _, tc := range []struct {
		name    string
		scheme  Scheme
		cores   int
		drain   bool
		reqs    int64
		budgets []int
	}{
		{"aqua-memmapped/1-core", SchemeAquaMemMapped, 1, false, 12000, []int{1, 999, 4097}},
		{"aqua-memmapped/4-core", SchemeAquaMemMapped, 4, false, 6000, []int{1}},
		{"rrs/4-core", SchemeRRS, 4, false, 6000, []int{1}},
		{"aqua-sram-drain/4-core", SchemeAquaSRAM, 4, true, 6000, []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *System {
				cfg := fastCfg(tc.scheme)
				cfg.Cores = tc.cores
				cfg.ProactiveDrain = tc.drain
				return NewSystem(cfg, xzStreams(t, tc.reqs)[:tc.cores])
			}
			want := build().Run(0)
			sys := build()
			var total int64
			for i := 0; ; i++ {
				budget := tc.budgets[i%len(tc.budgets)]
				n := sys.IssueN(budget)
				if n > budget {
					t.Fatalf("IssueN(%d) issued %d requests", budget, n)
				}
				total += int64(n)
				if got := sys.Ctrl.Stats().Requests; got != total {
					t.Fatalf("after IssueN(%d) returned %d, the controller has seen %d requests, want %d", budget, n, got, total)
				}
				if n < budget {
					break
				}
			}
			if total != want.Requests || total != int64(tc.cores)*tc.reqs {
				t.Fatalf("IssueN slices issued %d requests, Run %d, streams %d", total, want.Requests, int64(tc.cores)*tc.reqs)
			}
			if got := sys.result(0); !reflect.DeepEqual(got, want) {
				t.Fatalf("IssueN slices diverged from Run:\nslices: %+v\nrun:    %+v", got, want)
			}
		})
	}
}

// earliestCase is one row of the Earliest tables: the cores' next-issue
// times and the core Earliest must pick from them.
type earliestCase struct {
	name string
	next []dram.PS
	root int
}

func checkEarliest(t *testing.T, cases []earliestCase) {
	t.Helper()
	for _, tc := range cases {
		if root := Earliest(tc.next); root != tc.root {
			t.Errorf("%s: Earliest(%v) = %d, want %d", tc.name, tc.next, root, tc.root)
		}
	}
}

// TestEarliest pins how the run loop's core selection treats finished
// cores: their sentinel entries are never picked, and with no core left
// the result is -1.
func TestEarliest(t *testing.T) {
	checkEarliest(t, []earliestCase{
		{"finished entries are skipped", []dram.PS{finished, 20, finished, 10}, 3},
		{"one unfinished core", []dram.PS{finished, 5, finished}, 1},
		{"a lone core", []dram.PS{10}, 0},
		{"every core finished", []dram.PS{finished, finished}, -1},
		{"no cores", nil, -1},
	})
}

// TestEarliestTotalOrder pins the (time, core index) order: the earliest
// time wins whatever the indices, and the lowest index breaks a tie.
func TestEarliestTotalOrder(t *testing.T) {
	checkEarliest(t, []earliestCase{
		{"time dominates index", []dram.PS{2, 1}, 1},
		{"earliest time wins", []dram.PS{30, 10, 20}, 1},
		{"index breaks a time tie", []dram.PS{5, 5}, 0},
		{"tie behind an earlier core", []dram.PS{50, 40, 40}, 1},
	})
	// Over every ordered pair the order is strict and total: core 1 wins
	// only with a strictly earlier time.
	times := []dram.PS{0, 1, 5, 9, finished - 1}
	for _, a := range times {
		for _, b := range times {
			want := 0
			if b < a {
				want = 1
			}
			if root := Earliest([]dram.PS{a, b}); root != want {
				t.Errorf("Earliest([%d %d]) = %d, want %d", a, b, root, want)
			}
		}
	}
}

// TestEarliestEqualTimestampCollision drains cores that reached the same
// instant in any order: they must be picked in core-index order.
func TestEarliestEqualTimestampCollision(t *testing.T) {
	next := []dram.PS{finished, finished, finished, finished}
	for _, i := range []int{2, 0, 3, 1} {
		next[i] = 100
	}
	for want := 0; want < 4; want++ {
		root := Earliest(next)
		if root != want {
			t.Fatalf("pick %d: Earliest(%v) = %d, want %d", want, next, root, want)
		}
		next[root] = finished
	}
	if root := Earliest(next); root != -1 {
		t.Fatalf("Earliest after draining = %d, want -1", root)
	}
}

// TestEarliestMatchesReferenceModel drives random interleavings of the
// run loop's write-backs (the chosen core rescheduled forward or back,
// that core finishing, a finished core's entry set again) against a
// sorted reference, checking after every step that Earliest picks
// exactly the reference minimum.
func TestEarliestMatchesReferenceModel(t *testing.T) {
	type entry struct {
		t dram.PS
		i int
	}
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed * 0x9e3779b97f4a7c15)
		next := make([]dram.PS, 1+r.Intn(64))
		for i := range next {
			next[i] = finished
		}
		var ref []entry
		for step := 0; step < 4000; step++ {
			root := Earliest(next)
			switch op := r.Intn(10); {
			case op < 5 || root < 0: // set a random core's entry
				next[r.Intn(len(next))] = dram.PS(r.Intn(1 << 20))
			case op < 8: // reschedule the chosen core, forward or back
				next[root] = dram.PS(r.Intn(1 << 20))
			default: // the chosen core finishes
				next[root] = finished
			}
			ref = ref[:0]
			for i, tm := range next {
				if tm != finished {
					ref = append(ref, entry{tm, i})
				}
			}
			sort.Slice(ref, func(a, b int) bool {
				if ref[a].t != ref[b].t {
					return ref[a].t < ref[b].t
				}
				return ref[a].i < ref[b].i
			})
			want := -1
			if len(ref) > 0 {
				want = ref[0].i
			}
			if root := Earliest(next); root != want {
				t.Fatalf("seed %d step %d: Earliest(%v) = %d; reference %d",
					seed, step, next, root, want)
			}
		}
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
	grid := precomputeGrid(t, r, []string{"xz", "wrf"}, []GridCell{
		{Scheme: SchemeAquaMemMapped, TRH: 1000},
	})
	if len(grid) != 2 || len(grid[0]) != 1 {
		t.Fatalf("grid shape: %+v", grid)
	}
	for _, row := range grid {
		c := row[0]
		if c.NormIPC <= 0 || c.NormIPC > 1.2 {
			t.Errorf("%s norm IPC = %g", c.Workload, c.NormIPC)
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

// tierCell, coRunCell and bloomCell are the three kinds of variant cell
// the figures request: Table II's tier counts, the Section VI-C co-run
// and a Section V-F structure size.
var (
	tierCell  = GridCell{Scheme: SchemeBaseline, TRH: 1000, Variant: Variant{Measure: MeasureTiers}}
	coRunCell = GridCell{Scheme: SchemeAquaSRAM, TRH: 1000, Variant: Variant{Measure: MeasureCoRun}}
	bloomCell = GridCell{Scheme: SchemeAquaMemMapped, TRH: 1000, Variant: Variant{BloomGroupSize: 32}}
)

func TestRowTierCounts(t *testing.T) {
	r := NewRunner(ExpConfig{Window: 2 * dram.Millisecond, Calibrate: false})
	run, err := r.RunCtx(context.Background(), "gcc", tierCell)
	if err != nil {
		t.Fatal(err)
	}
	counts := run.Tiers
	if counts.ACT166 < counts.ACT500 || counts.ACT500 < counts.ACT1K {
		t.Fatalf("tier counts not cumulative: %+v", *counts)
	}
	if counts.ACT166 == 0 {
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
	run, err := r.RunCtx(context.Background(), "xz", bloomCell)
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
	r := NewRunner(ExpConfig{Window: 300 * dram.Microsecond, Seed: 3})
	run, err := r.RunCtx(context.Background(), "xz", coRunCell)
	if err != nil {
		t.Fatal(err)
	}
	res := run.CoRun
	if res.SoloVictimIPC <= 0 || res.BaselineVictimIPC <= 0 || res.VictimIPC <= 0 {
		t.Fatalf("degenerate: %+v", *res)
	}
	if run.Scheme != SchemeAquaSRAM {
		t.Fatal("scheme not recorded")
	}
	if _, _, err := r.coRunLeg(context.Background(), "xz", SchemeAquaSRAM, 1000, 0, true); err == nil {
		t.Fatal("zero window accepted")
	}
}

// TestCoRunFullWindowMonitor runs the Section VI-C co-run's protected leg
// over a full 64 ms window with the security monitor attached. Cross-bank
// ACTs reach the monitor slightly out of timestamp order, and at this
// seed one of them straddles the monitor's 32 ms half-window roll; the
// run must complete, and AQUA must keep every row under T_RH.
func TestCoRunFullWindowMonitor(t *testing.T) {
	r := NewRunner(ExpConfig{Seed: 801})
	_, res, err := r.coRunLeg(context.Background(), "gcc", SchemeAquaMemMapped, 1000, 64*dram.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violated {
		t.Fatalf("AQUA co-run violated T_RH: %d mitigations", res.MitStats.Mitigations)
	}
}

// resultJSON is json.Marshal(Result{}). aquabench hashes a run's Result
// JSON into the committed digests of cell_lbm64 and dos_corun16, so a
// field added, dropped, renamed or reordered anywhere in Result moves
// them.
const resultJSON = `{"Scheme":0,"SimTime":0,"Instr":0,"Requests":0,"IPC":0,` +
	`"MitStats":{"Mitigations":0,"RowMigrations":0,"Evictions":0,"ProactiveDrains":0,"VictimRefreshes":0,` +
	`"ChannelBusy":0,"ThrottleDelay":0,"Lookups":[0,0,0,0,0,0,0],"TableDRAMAccesses":0,"ReuseViolations":0,` +
	`"MigrationAborts":0,"OverflowFallbacks":0},` +
	`"CtrlStats":{"Requests":0,"Reads":0,"Writes":0,"TotalLatency":0,"MaxLatency":0,"Refreshes":0,"Epochs":0,` +
	`"RefreshCollisions":0},` +
	`"MigrationsPer64ms":0,"Violated":false,"MaxWindowACTs":0,"DRAMPowerMW":0,` +
	`"FaultStats":{"Injected":0,"ByKind":[0,0,0,0,0,0,0,0,0,0]}}`

// TestResultJSONPinned pins Result's JSON shape, always-zero fields
// included.
func TestResultJSONPinned(t *testing.T) {
	got, err := json.Marshal(Result{})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != resultJSON {
		t.Fatalf("json.Marshal(Result{}) changed:\n got %s\nwant %s\n"+
			"aquabench's committed digests hash this JSON for cell_lbm64 and dos_corun16. "+
			"The change that moves it (for example, dropping the always-zero FaultStats, "+
			"MitStats.MigrationAborts, MitStats.OverflowFallbacks and CtrlStats.RefreshCollisions) "+
			"must re-commit bench/aquabench/testdata/digests.txt with it and update resultJSON",
			got, resultJSON)
	}
}
