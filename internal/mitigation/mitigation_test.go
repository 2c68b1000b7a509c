package mitigation

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/invariant"
)

func TestNoneIsTransparent(t *testing.T) {
	var n None
	if n.Name() != "baseline" {
		t.Fatal("name")
	}
	tr := n.Translate(dram.Row(42), 100)
	if tr.PhysRow != 42 || tr.Latency != 0 || tr.Class != LookupNone {
		t.Fatalf("translate = %+v", tr)
	}
	if n.Delay(1, 77) != 77 {
		t.Fatal("delay")
	}
	if n.OnActivate(1, 0) != 0 {
		t.Fatal("activate busy")
	}
	n.OnEpoch(0)
	if s := n.Stats(); s.Mitigations != 0 {
		t.Fatal("stats")
	}
}

func TestLookupClassStrings(t *testing.T) {
	want := map[LookupClass]string{
		LookupNone:          "none",
		LookupBloomFiltered: "bloom-filtered",
		LookupCacheHit:      "fpt-cache-hit",
		LookupSingleton:     "singleton",
		LookupDRAM:          "dram",
		LookupSRAM:          "sram",
		LookupPinned:        "pinned",
		LookupClass(99):     "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestTotalLookups(t *testing.T) {
	var s Stats
	s.Lookups[LookupSRAM] = 3
	s.Lookups[LookupDRAM] = 4
	if s.TotalLookups() != 7 {
		t.Fatalf("total = %d", s.TotalLookups())
	}
}

func TestNumLookupClassesCoversAll(t *testing.T) {
	// Guard against adding a class without extending the stats array.
	for c := LookupClass(0); c < NumLookupClasses; c++ {
		if c.String() == "unknown" {
			t.Fatalf("class %d has no name", c)
		}
	}
}

// statsStub is a Mitigator whose Stats the test sets directly.
type statsStub struct {
	None
	stats Stats
}

func (s *statsStub) Stats() Stats { return s.stats }

// TestCheckedFlagsCountersFallingToZero: cumulative counters never
// reset mid-run, so a fall of every counter to zero between two
// OnActivate calls is a stats-monotonic violation like any other drop.
func TestCheckedFlagsCountersFallingToZero(t *testing.T) {
	chk := invariant.New()
	stub := &statsStub{stats: Stats{Mitigations: 3}}
	m := Checked(stub, dram.Geometry{Banks: 1, RowsPerBank: 8, RowBytes: 1024, LineBytes: 64}, chk)
	m.OnActivate(1, 0)
	stub.stats = Stats{}
	m.OnActivate(1, 1)
	vs := chk.Violations()
	if len(vs) != 1 || vs[0].Rule != "stats-monotonic" {
		t.Fatalf("violations %v, want one stats-monotonic", vs)
	}
}

// contractStub is a Mitigator with the background-drain hook whose
// answers the test sets. Its zero value keeps every Checked rule.
type contractStub struct {
	None
	tr       Translation
	issueLag dram.PS // Delay returns now + issueLag
	busy     dram.PS // OnActivate's channel-busy time
	idleBusy dram.PS // OnIdle's drain time
}

func (s *contractStub) Translate(dram.Row, dram.PS) Translation { return s.tr }
func (s *contractStub) Delay(_ dram.Row, now dram.PS) dram.PS   { return now + s.issueLag }
func (s *contractStub) OnActivate(dram.Row, dram.PS) dram.PS    { return s.busy }
func (s *contractStub) OnIdle(dram.PS) dram.PS                  { return s.idleBusy }

// TestCheckedFlagsEachRule: a stub whose one answer breaks one contract
// rule, driven through every Checked method, records exactly one
// violation, of that rule. The zero stub records none.
func TestCheckedFlagsEachRule(t *testing.T) {
	geom := dram.Geometry{Banks: 1, RowsPerBank: 8, RowBytes: 1024, LineBytes: 64}
	for _, tc := range []struct {
		rule    string
		breakIt func(s *contractStub)
	}{
		{"", func(*contractStub) {}},
		{"translate-range", func(s *contractStub) { s.tr.PhysRow = dram.Row(geom.Rows()) }},
		{"translate-latency", func(s *contractStub) { s.tr.Latency = -1 }},
		{"translate-class", func(s *contractStub) { s.tr.Class = NumLookupClasses }},
		{"delay-backwards", func(s *contractStub) { s.issueLag = -1 }},
		{"busy-negative", func(s *contractStub) { s.busy = -1 }},
		{"idle-busy-negative", func(s *contractStub) { s.idleBusy = -1 }},
	} {
		stub := &contractStub{}
		tc.breakIt(stub)
		chk := invariant.New()
		m := Checked(stub, geom, chk)
		d, ok := m.(Drainer)
		if !ok {
			t.Fatal("Checked dropped the stub's OnIdle")
		}
		m.Translate(3, 100)
		m.Delay(3, 100)
		m.OnActivate(3, 100)
		m.OnEpoch(200)
		d.OnIdle(300)
		vs := chk.Violations()
		if tc.rule == "" {
			if len(vs) != 0 {
				t.Errorf("a stub keeping every rule recorded %v", vs)
			}
			continue
		}
		if len(vs) != 1 || vs[0].Component != "mitigation" || vs[0].Rule != tc.rule {
			t.Errorf("breaking %s recorded %v, want exactly one %s violation", tc.rule, vs, tc.rule)
		}
	}
}
