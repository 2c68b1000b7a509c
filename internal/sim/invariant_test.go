package sim

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/invariant"
)

// checkedCfg runs scheme s with the invariant checker on, at T_RH 64 and
// 250 µs epochs, so that a run of a few thousand lbm requests per core
// mitigates and crosses epoch boundaries: the checks on each mitigation,
// the epoch sweep and the drains all run.
func checkedCfg(s Scheme, chk *invariant.Checker) Config {
	cfg := fastCfg(s)
	cfg.TRH = 64
	cfg.EpochLength = 250 * dram.Microsecond
	cfg.Invariants = chk
	return cfg
}

// TestFullSystemRunsInvariantClean wires the checker through every layer
// (rank timing shadow, controller, mitigation contract, AQUA structural
// checks) and runs a real workload under each scheme: any violation is a
// simulator bug. Each run must cross an epoch boundary, and every scheme
// that migrates or refreshes must mitigate, so the checks do not pass
// vacuously. Blockhammer is exempt: its blacklist threshold is a fixed
// 256 ACTs, which no row reaches within a 250 µs epoch here.
func TestFullSystemRunsInvariantClean(t *testing.T) {
	for _, s := range []Scheme{
		SchemeBaseline, SchemeAquaSRAM, SchemeAquaMemMapped,
		SchemeRRS, SchemeBlockhammer, SchemeVictimRefresh,
	} {
		chk := invariant.New()
		res := NewSystem(checkedCfg(s, chk), specStreams(t, "lbm", 20_000)).Run(0)
		t.Logf("%s: %d requests, %d epochs, %d mitigations", s, res.Requests, res.CtrlStats.Epochs, res.MitStats.Mitigations)
		if res.Requests == 0 || res.CtrlStats.Epochs == 0 {
			t.Errorf("%s: %d requests over %d epochs, want both positive", s, res.Requests, res.CtrlStats.Epochs)
		}
		if s != SchemeBaseline && s != SchemeBlockhammer && res.MitStats.Mitigations == 0 {
			t.Errorf("%s: no mitigation ran under the checker", s)
		}
		if err := chk.Err(); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

// TestProactiveDrainInvariantClean exercises the background drainer path
// (OnIdle through the Checked wrapper) with the checker on. The run must
// drain, and cross epoch boundaries, where a completed drain sweep is
// checked.
func TestProactiveDrainInvariantClean(t *testing.T) {
	chk := invariant.New()
	cfg := checkedCfg(SchemeAquaMemMapped, chk)
	cfg.ProactiveDrain = true
	sys := NewSystem(cfg, specStreams(t, "lbm", 40_000))
	if _, ok := sys.Mit.(interface{ OnIdle(int64) int64 }); !ok {
		t.Fatal("Checked wrapper lost the Drainer capability")
	}
	res := sys.Run(0)
	t.Logf("%d epochs, %d mitigations, %d proactive drains", res.CtrlStats.Epochs, res.MitStats.Mitigations, res.MitStats.ProactiveDrains)
	if res.CtrlStats.Epochs == 0 || res.MitStats.ProactiveDrains == 0 {
		t.Errorf("%d epochs and %d proactive drains, want both positive", res.CtrlStats.Epochs, res.MitStats.ProactiveDrains)
	}
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
}
