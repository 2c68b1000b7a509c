package repro

import (
	"context"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/flipmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runAttack drives one attack stream through a single core of a full
// sim.System (MLP 1 unless cfg.CoreCfg sets it) with the security monitor
// attached, and returns the system for inspection. fm, when non-nil,
// observes the rank's activations and refreshes.
func runAttack(t *testing.T, cfg sim.Config, stream cpu.Stream, fm *flipmodel.Model) (*sim.System, sim.Result) {
	t.Helper()
	cfg.Cores = 1
	if cfg.CoreCfg.MLP == 0 {
		cfg.CoreCfg.MLP = 1
	}
	cfg.Monitor = true
	sys, err := sim.NewSystemE(cfg, []cpu.Stream{stream})
	if err != nil {
		t.Fatal(err)
	}
	if fm != nil {
		fm.Attach(sys.Rank)
	}
	return sys, sys.Run(0)
}

func TestBaselineVulnerableToDoubleSided(t *testing.T) {
	geom := BaselineGeometry()
	victim := geom.RowOf(3, 5000)
	const trh = 1000
	sys, _ := runAttack(t, sim.Config{Scheme: SchemeBaseline, TRH: trh},
		attack.DoubleSided(geom, victim, 2*trh), nil)
	if !sys.Monitor.Violated() {
		t.Fatal("unprotected memory survived a double-sided attack")
	}
}

func TestBaselineVulnerableToSingleSided(t *testing.T) {
	geom := BaselineGeometry()
	aggr := geom.RowOf(0, 777)
	sys, _ := runAttack(t, sim.Config{Scheme: SchemeBaseline, TRH: 1000},
		attack.SingleSided(geom, aggr, geom.RowsPerBank, 2000), nil)
	if !sys.Monitor.Violated() {
		t.Fatal("unprotected memory survived single-sided hammering")
	}
}

func TestAquaStopsDoubleSided(t *testing.T) {
	for _, scheme := range []sim.Scheme{SchemeAquaSRAM, SchemeAquaMemMapped} {
		geom := BaselineGeometry()
		victim := geom.RowOf(3, 5000)
		sys, _ := runAttack(t, sim.Config{Scheme: scheme, TRH: 1000},
			attack.DoubleSided(geom, victim, 4000), nil)
		mon := sys.Monitor
		if mon.Violated() {
			t.Fatalf("%s: AQUA violated: %+v", scheme, mon.Violations()[0])
		}
		if sys.Aqua.Stats().Mitigations == 0 {
			t.Fatalf("%s: attack triggered no mitigations", scheme)
		}
		if _, max := mon.MaxWindowCount(); max >= 1000 {
			t.Fatalf("%s: a row reached %d ACTs", scheme, max)
		}
	}
}

func TestAquaStopsSustainedHammering(t *testing.T) {
	// The attacker follows the row through every quarantine: translate,
	// hammer, repeat — 20x the threshold in total. Property P3: even the
	// quarantine slots migrate before reaching T_RH.
	geom := BaselineGeometry()
	const trh = 1000

	// The adaptive pattern forces one target activation per round even as
	// migrations move the row across banks.
	aggr := geom.RowOf(0, 42)
	sys, _ := runAttack(t, sim.Config{Scheme: SchemeAquaMemMapped, TRH: trh},
		attack.AdaptiveHammer(geom, aggr, 60000, 8*trh), nil)
	eng := sys.Aqua
	if sys.Monitor.Violated() {
		t.Fatalf("sustained hammering violated: %+v", sys.Monitor.Violations()[0])
	}
	if eng.Stats().Mitigations < 10 {
		t.Fatalf("expected many internal migrations, got %d", eng.Stats().Mitigations)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRRSStopsSustainedHammering(t *testing.T) {
	geom := BaselineGeometry()
	const trh = 1000
	aggr := geom.RowOf(1, 42)
	sys, _ := runAttack(t, sim.Config{Scheme: SchemeRRS, TRH: trh, Seed: 9},
		attack.AdaptiveHammer(geom, aggr, geom.RowsPerBank, 6*trh), nil)
	if sys.Monitor.Violated() {
		t.Fatalf("RRS violated: %+v", sys.Monitor.Violations()[0])
	}
	if sys.Mit.Stats().Mitigations == 0 {
		t.Fatal("RRS never swapped under sustained hammering")
	}
}

func TestHalfDoubleDefeatsVictimRefreshButNotAqua(t *testing.T) {
	geom := BaselineGeometry()
	const trh = 400 // keep the attack cheap; behaviour is threshold-relative
	victim := geom.RowOf(2, 1000)
	// The attacker hammers the distance-2 ring around the victim hard
	// enough that the mitigating refreshes of the distance-1 rows
	// themselves accumulate T_RH disturbances on the victim.
	acts := int64(trh) * int64(trh) // enough refresh triggers

	// The flip threshold is 2*T_RH combined disturbance: T_RH is defined
	// per aggressor row, and a victim has two distance-1 neighbours.
	const flipThreshold = 2 * trh

	// Victim refresh: flips the distance-2 victim (Figure 1a). The charge
	// model sees the mitigating refreshes the engine reports to the rank.
	{
		fm := flipmodel.New(geom, flipThreshold, DDR4Timing().TREFW)
		runAttack(t, sim.Config{Scheme: SchemeVictimRefresh, TRH: trh},
			attack.HalfDouble(geom, victim, acts), fm)
		flipped := false
		for _, f := range fm.Flips() {
			if f.Victim == victim {
				flipped = true
			}
		}
		if !flipped {
			t.Fatal("Half-Double did not flip the distance-2 victim under victim refresh")
		}
	}

	// AQUA: the aggressors are quarantined away; no row in the victim's
	// neighbourhood accumulates the threshold. Deliberately checked at the
	// *stricter* 1x combined threshold — AQUA holds with margin.
	{
		fm := flipmodel.New(geom, trh, DDR4Timing().TREFW)
		sys, _ := runAttack(t, sim.Config{Scheme: SchemeAquaMemMapped, TRH: trh},
			attack.HalfDouble(geom, victim, acts), fm)
		for _, f := range fm.Flips() {
			if f.Victim == victim {
				t.Fatal("Half-Double flipped the victim despite AQUA")
			}
		}
		if sys.Monitor.Violated() {
			t.Fatalf("AQUA activation invariant violated: %+v", sys.Monitor.Violations()[0])
		}
	}
}

func TestWorstCaseDoSBounded(t *testing.T) {
	// Section VI-C: the worst adversarial pattern slows the memory system
	// by at most ~2.95x. Measure the same DoS stream on baseline and AQUA
	// and compare elapsed time.
	geom := BaselineGeometry()
	const trh = 1000
	region := sim.VisibleRegion(sim.Config{})
	run := func(scheme sim.Scheme) dram.PS {
		_, res := runAttack(t, sim.Config{Scheme: scheme, TRH: trh, CoreCfg: cpu.Config{MLP: 4}},
			attack.NewRotatingDoS(geom, region.VisibleRowsPerBank, trh/2, 200_000), nil)
		return res.SimTime
	}
	base := run(SchemeBaseline)
	aqua := run(SchemeAquaSRAM)
	slowdown := float64(aqua) / float64(base)
	if slowdown > 3.1 {
		t.Fatalf("DoS slowdown %.2fx exceeds the 2.95x analytical bound", slowdown)
	}
	if slowdown < 1.05 {
		t.Fatalf("DoS pattern had no effect (%.2fx) — attack not exercising migrations", slowdown)
	}
}

func TestTableHammerDefended(t *testing.T) {
	// Section VI-B integrity: hammering AQUA's in-DRAM FPT via forced
	// lookup misses must quarantine the table row itself, and no physical
	// row may reach T_RH.
	geom := BaselineGeometry()
	const trh = 200

	// Setup: quarantine two rows in each of two groups of the first FPT
	// table row's coverage (rows 0..4095 share one 8KB FPT row).
	setup := []dram.Row{geom.RowOf(0, 0), geom.RowOf(0, 1),
		geom.RowOf(0, 16), geom.RowOf(0, 17)}
	// Sweep distinct rows of those groups: every access walks to DRAM.
	var sweep []dram.Row
	for i := 2; i < 16; i++ {
		sweep = append(sweep, geom.RowOf(0, i))
	}
	for i := 18; i < 32; i++ {
		sweep = append(sweep, geom.RowOf(0, i))
	}
	visible := core.VisibleRowsPerBankFor(geom, DDR4Timing(), core.Config{TRH: trh, Mode: core.ModeMemMapped})
	sys, _ := runAttack(t, sim.Config{Scheme: SchemeAquaMemMapped, TRH: trh},
		attack.TableHammer(geom, visible, setup, sweep, trh/2, 40), nil)
	eng := sys.Aqua
	if got := eng.VisibleRowsPerBank(); got != visible {
		t.Fatalf("engine exposes %d visible rows per bank, the stream assumed %d", got, visible)
	}
	for _, r := range setup {
		if !eng.IsQuarantined(r) {
			t.Fatalf("setup row %d not quarantined", r)
		}
	}
	if eng.Stats().TableDRAMAccesses == 0 {
		t.Fatal("sweep never reached the in-DRAM FPT")
	}
	if sys.Monitor.Violated() {
		t.Fatalf("table hammering violated the invariant: %+v", sys.Monitor.Violations()[0])
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBirthdayProbingAgainstRRS(t *testing.T) {
	// RRS's threat: an attacker who hammers a row and probes random rows
	// hoping to find the swap destination. Whatever the probes hit, no
	// physical row may cross T_RH.
	geom := BaselineGeometry()
	const trh = 600
	aggr := geom.RowOf(0, 9)
	// With no instruction gaps, the MLP-1 core issues each access the
	// moment the previous one completes.
	var recs []trace.Record
	probe := dram.Row(1)
	for i := 0; i < 6*trh; i++ {
		probe = dram.Row((uint64(probe)*2862933555777941757 + 3037000493) % uint64(geom.Rows()))
		// Probes must avoid the reserved strips only in AQUA; RRS has
		// none, so any row is fair game.
		recs = append(recs, trace.Record{Row: aggr}, trace.Record{Row: probe})
	}
	sys, _ := runAttack(t, sim.Config{Scheme: SchemeRRS, TRH: trh, Seed: 4}, trace.NewSliceStream(recs), nil)
	if sys.Monitor.Violated() {
		t.Fatalf("birthday probing violated: %+v", sys.Monitor.Violations()[0])
	}
}

func TestManySidedAgainstAqua(t *testing.T) {
	geom := BaselineGeometry()
	const trh = 500
	victim := geom.RowOf(1, 4000)
	sys, _ := runAttack(t, sim.Config{Scheme: SchemeAquaSRAM, TRH: trh},
		attack.ManySided(geom, victim, 4, 3*trh), nil)
	if sys.Monitor.Violated() {
		t.Fatalf("many-sided attack violated: %+v", sys.Monitor.Violations()[0])
	}
	if sys.Aqua.Stats().Mitigations == 0 {
		t.Fatal("many-sided attack triggered no quarantines")
	}
}

func TestAquaHydraTrackerStopsAttack(t *testing.T) {
	// Appendix B's AQUA-Hydra configuration: the storage-optimized hybrid
	// tracker must preserve the security invariant end-to-end.
	geom := BaselineGeometry()
	const trh = 1000
	sys, _ := runAttack(t, sim.Config{Scheme: SchemeAquaMemMapped, TRH: trh, Tracker: sim.TrackerHydra},
		attack.AdaptiveHammer(geom, geom.RowOf(2, 42), 60000, 5*trh), nil)
	if sys.Monitor.Violated() {
		t.Fatalf("AQUA-Hydra violated: %+v", sys.Monitor.Violations()[0])
	}
	if sys.Aqua.Stats().Mitigations == 0 {
		t.Fatal("Hydra tracker never triggered")
	}
}

func TestProactiveDrainPreservesSecurity(t *testing.T) {
	// The Section IV-D background drainer must not weaken the invariant:
	// run the sustained attack across an epoch boundary with draining on
	// (serviced at the System's fixed 10 us interval).
	geom := BaselineGeometry()
	const trh = 400
	sys, _ := runAttack(t, sim.Config{
		Scheme: SchemeAquaMemMapped, TRH: trh, ProactiveDrain: true,
		EpochLength: 2 * dram.Millisecond,
	}, attack.AdaptiveHammer(geom, geom.RowOf(1, 7), 60000, 12*trh), nil)
	eng := sys.Aqua
	if sys.Monitor.Violated() {
		t.Fatalf("drain-enabled AQUA violated: %+v", sys.Monitor.Violations()[0])
	}
	if eng.Stats().ProactiveDrains == 0 {
		t.Fatal("drainer never ran despite epoch rollover")
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoRunDoSImpactBounded(t *testing.T) {
	// Section VI-C, end to end: with a DoS attacker on one core and a
	// benign workload on the others, AQUA's extra interference on the
	// victims (beyond the attack's own bandwidth use) stays within the
	// 2.95x analytical bound, and the invariant holds throughout.
	r := sim.NewRunner(sim.ExpConfig{Window: 4 * dram.Millisecond, Seed: 7})
	run, err := r.RunCtx(context.Background(), "gcc", sim.GridCell{
		Scheme: sim.SchemeAquaSRAM, TRH: 1000, Variant: sim.Variant{Measure: sim.MeasureCoRun}})
	if err != nil {
		t.Fatal(err)
	}
	if run.Result.Violated {
		t.Fatal("co-run violated the invariant")
	}
	if run.Result.MitStats.Mitigations == 0 {
		t.Fatal("attacker triggered no mitigations")
	}
	res := run.CoRun
	if res.AttackSlowdown > 3.1 {
		t.Fatalf("victim slowdown %.2fx exceeds the DoS bound", res.AttackSlowdown)
	}
	if res.VictimIPC <= 0 || res.BaselineVictimIPC <= 0 || res.SoloVictimIPC <= 0 {
		t.Fatalf("degenerate IPCs: %+v", res)
	}
	// The attack itself must cost the victims something relative to solo,
	// where core 0 idles.
	if res.BaselineVictimIPC >= res.SoloVictimIPC {
		t.Fatalf("attacker did not disturb the victims: %.3f under attack vs %.3f solo",
			res.BaselineVictimIPC, res.SoloVictimIPC)
	}
}
