package blockhammer

import (
	"testing"

	"repro/internal/dram"
)

func testGeom() dram.Geometry {
	return dram.Geometry{Banks: 4, RowsPerBank: 128, RowBytes: 1024, LineBytes: 64}
}

func newEngine(trh int64, blacklist int64) *Engine {
	rank := dram.NewRank(testGeom(), dram.DDR4())
	return New(rank, Config{TRH: trh, BlacklistThreshold: blacklist})
}

func TestNoDelayBelowBlacklist(t *testing.T) {
	e := newEngine(1000, 16)
	row := testGeom().RowOf(0, 1)
	for i := 0; i < 15; i++ {
		e.OnActivate(row, dram.PS(i))
	}
	if e.Blacklisted(row) {
		t.Fatal("blacklisted early")
	}
	if got := e.Delay(row, 100); got != 100 {
		t.Fatalf("delayed below blacklist: %d", got)
	}
}

func TestBlacklistedRowThrottled(t *testing.T) {
	e := newEngine(1000, 16)
	row := testGeom().RowOf(0, 1)
	for i := 0; i < 16; i++ {
		e.OnActivate(row, dram.PS(i))
	}
	if !e.Blacklisted(row) {
		t.Fatal("not blacklisted at threshold")
	}
	spacing := e.spacing
	first := e.Delay(row, 1000)
	second := e.Delay(row, 1000)
	if second-first != spacing {
		t.Fatalf("spacing = %d, want %d", second-first, spacing)
	}
	if e.Stats().ThrottleDelay == 0 {
		t.Fatal("throttle delay not accounted")
	}
}

func TestSpacingEnforcesQuota(t *testing.T) {
	// Quota = TRH/2 activations per window; spacing = window/quota. At
	// TRH=1K that is 64ms/500 = 128us, the figure behind the paper's
	// 1280x worst case.
	cfg := Config{TRH: 1000}
	cfg.fillDefaults()
	if q := cfg.Quota(); q != 500 {
		t.Fatalf("quota = %d", q)
	}
	if s := cfg.Spacing(dram.DDR4()); s != 128*dram.Microsecond {
		t.Fatalf("spacing = %d, want 128us", s)
	}
}

func TestWorstCaseSlowdownFactor(t *testing.T) {
	// A conflicting two-row pattern runs one round per ~2*tRC unthrottled
	// versus one per spacing when blacklisted: the ratio at TRH=1K is
	// ~1280x (Section VII-B).
	cfg := Config{TRH: 1000}
	cfg.fillDefaults()
	// One round = two conflicting ACTs ~= 100ns unthrottled; throttled,
	// both rows release one activation per 128us spacing, so rounds
	// proceed at the spacing rate: 128us / ~100ns ~= 1280x-1400x.
	unthrottledRound := 2 * dram.DDR4().TRC
	ratio := float64(cfg.Spacing(dram.DDR4())) / float64(unthrottledRound)
	if ratio < 1000 || ratio > 1600 {
		t.Fatalf("worst-case ratio = %.0fx, want ~1280x", ratio)
	}
}

func TestEpochClearsState(t *testing.T) {
	e := newEngine(1000, 4)
	row := testGeom().RowOf(0, 1)
	for i := 0; i < 5; i++ {
		e.OnActivate(row, dram.PS(i))
	}
	if !e.Blacklisted(row) {
		t.Fatal("not blacklisted")
	}
	e.OnEpoch(64 * dram.Millisecond)
	if e.Blacklisted(row) {
		t.Fatal("blacklist survived epoch")
	}
	if got := e.Delay(row, 0); got != 0 {
		t.Fatal("delay survived epoch")
	}
}

func TestTranslateIsIdentity(t *testing.T) {
	e := newEngine(1000, 16)
	row := testGeom().RowOf(1, 2)
	tr := e.Translate(row, 0)
	if tr.PhysRow != row || tr.Latency != 0 {
		t.Fatalf("translate = %+v", tr)
	}
}

func TestMitigationsCountBlacklistEntries(t *testing.T) {
	e := newEngine(1000, 4)
	a, b := testGeom().RowOf(0, 1), testGeom().RowOf(1, 1)
	for i := 0; i < 10; i++ {
		e.OnActivate(a, dram.PS(i))
		e.OnActivate(b, dram.PS(i))
	}
	if got := e.Stats().Mitigations; got != 2 {
		t.Fatalf("mitigations = %d", got)
	}
}

func TestName(t *testing.T) {
	if newEngine(1000, 16).Name() != "blockhammer" {
		t.Fatal("name")
	}
}
