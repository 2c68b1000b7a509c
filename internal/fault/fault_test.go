package fault

import (
	"reflect"
	"testing"
)

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if in.Fire(RQAOverflow, 0) {
		t.Fatal("nil injector fired")
	}
	if in.FireRow(ECCFlip, 42, 0) {
		t.Fatal("nil injector fired on row")
	}
	in.SetRowFilter(ECCFlip, func(int64) bool { return true })
	if in.Draw(TrackerCorrupt) != 0 {
		t.Fatal("nil injector drew a payload")
	}
	if in.Trace() != nil || in.Stats() != (Stats{}) {
		t.Fatal("nil injector has state")
	}
}

func TestEmptyPlanYieldsNilInjector(t *testing.T) {
	if in := NewInjector(1, Plan{}); in != nil {
		t.Fatal("empty plan built an injector")
	}
}

func TestOnceFiresExactlyOnceAtOrAfterAt(t *testing.T) {
	in := NewInjector(7, Plan{Arms: []Arm{{Kind: CellPanic, Schedule: Schedule{Trigger: TriggerOnce, At: 100}}}})
	if in.Fire(CellPanic, 50) {
		t.Fatal("fired before At")
	}
	if !in.Fire(CellPanic, 100) {
		t.Fatal("did not fire at At")
	}
	for _, now := range []int64{100, 150, 1 << 40} {
		if in.Fire(CellPanic, now) {
			t.Fatalf("one-shot fired again at %d", now)
		}
	}
	if got := in.Stats(); got.Injected != 1 || got.ByKind[CellPanic] != 1 {
		t.Fatalf("stats %+v", got)
	}
}

func TestBurstFiresCountTimesFromAt(t *testing.T) {
	in := NewInjector(7, Plan{Arms: []Arm{{Kind: ECCFlip, Schedule: Schedule{Trigger: TriggerBurst, At: 10, Count: 3}}}})
	fires := 0
	for now := int64(0); now < 20; now++ {
		if in.Fire(ECCFlip, now) {
			fires++
			if now < 10 {
				t.Fatalf("burst fired at %d, before At", now)
			}
		}
	}
	if fires != 3 {
		t.Fatalf("burst fired %d times, want 3", fires)
	}
}

func TestProbabilisticRoughRateAndDeterminism(t *testing.T) {
	plan := Plan{Arms: []Arm{{Kind: RQAOverflow, Schedule: Schedule{Trigger: TriggerProb, P: 0.25}}}}
	run := func(seed uint64) (int, []Event) {
		in := NewInjector(seed, plan)
		n := 0
		for i := int64(0); i < 4000; i++ {
			if in.Fire(RQAOverflow, i) {
				n++
			}
		}
		return n, in.Trace()
	}
	n1, tr1 := run(11)
	n2, tr2 := run(11)
	if n1 != n2 || !reflect.DeepEqual(tr1, tr2) {
		t.Fatalf("same seed diverged: %d vs %d fires", n1, n2)
	}
	if n1 < 800 || n1 > 1200 {
		t.Fatalf("p=0.25 over 4000 opportunities fired %d times", n1)
	}
	n3, _ := run(12)
	if n3 == n1 {
		t.Fatalf("different seeds produced identical fire count %d (suspicious)", n1)
	}
}

func TestRowFilterScopesFiring(t *testing.T) {
	in := NewInjector(5, Plan{Arms: []Arm{{Kind: ECCFlip, Schedule: Schedule{Trigger: TriggerProb, P: 1}}}})
	in.SetRowFilter(ECCFlip, func(row int64) bool { return row >= 1000 })
	if in.FireRow(ECCFlip, 5, 0) {
		t.Fatal("fired outside the row filter")
	}
	if !in.FireRow(ECCFlip, 1000, 0) {
		t.Fatal("did not fire inside the row filter")
	}
}

func TestDrawIsDeterministicPerSeed(t *testing.T) {
	plan := Plan{Arms: []Arm{{Kind: TrackerCorrupt, Schedule: Schedule{Trigger: TriggerProb, P: 0.5}}}}
	a := NewInjector(9, plan)
	b := NewInjector(9, plan)
	for i := 0; i < 16; i++ {
		if a.Draw(TrackerCorrupt) != b.Draw(TrackerCorrupt) {
			t.Fatal("same-seed payload streams diverged")
		}
	}
	c := NewInjector(10, plan)
	same := true
	for i := 0; i < 16; i++ {
		if a.Draw(TrackerCorrupt) != c.Draw(TrackerCorrupt) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical payload streams")
	}
}

func TestParseRulesRoundTrip(t *testing.T) {
	spec := " xz/rrs/1000=panic@once:0 ; wrf/aqua-sram/*=rqa-overflow@p:0.02;*/*/*=ecc-flip@burst:1000000:8 "
	r, err := ParseRules(spec)
	if err != nil {
		t.Fatal(err)
	}
	canon := r.String()
	want := "xz/rrs/1000=panic@once:0;wrf/aqua-sram/*=rqa-overflow@p:0.02;*/*/*=ecc-flip@burst:1000000:8"
	if canon != want {
		t.Fatalf("canonical form:\n got %q\nwant %q", canon, want)
	}
	r2, err := ParseRules(canon)
	if err != nil {
		t.Fatal(err)
	}
	if r2.String() != canon {
		t.Fatalf("canonical form not a fixed point: %q -> %q", canon, r2.String())
	}
}

func TestParseRulesEmptyAndErrors(t *testing.T) {
	for _, empty := range []string{"", "  ", ";;"} {
		r, err := ParseRules(empty)
		if err != nil || r != nil {
			t.Fatalf("ParseRules(%q) = %v, %v; want nil, nil", empty, r, err)
		}
	}
	for _, bad := range []string{
		"xz/rrs/1000",                  // no fault
		"xz/rrs=panic@once:0",          // malformed cell
		"xz/rrs/zero=panic@once:0",     // bad trh
		"xz/rrs/1000=explode@once:0",   // unknown kind
		"xz/rrs/1000=panic@eventually", // unknown trigger
		"xz/rrs/1000=panic@p:1.5",      // probability out of range
		"xz/rrs/1000=panic@burst:10",   // burst missing count
		"xz/rrs/1000=panic@once:-5",    // negative time
		"xz//1000=panic@once:0",        // empty scheme
		"xz/rrs/1000=@once:0",          // empty kind (the reserved slot has no name)
		"*/*/*=worker-kill@once:0",     // retired kind
		"*/*/*=transient@once:0",       // retired kind
	} {
		if _, err := ParseRules(bad); err == nil {
			t.Fatalf("ParseRules(%q) accepted malformed spec", bad)
		}
	}
}

func TestPlanForMatching(t *testing.T) {
	r, err := ParseRules("xz/rrs/1000=panic@once:0;*/aqua-sram/*=rqa-overflow@p:0.5;wrf/*/*=stuck-row@once:0")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		workload, scheme string
		trh              int64
		wantKinds        []Kind
	}{
		{"xz", "rrs", 1000, []Kind{CellPanic}},
		{"xz", "rrs", 500, nil},
		{"xz", "aqua-sram", 1000, []Kind{RQAOverflow}},
		{"wrf", "aqua-sram", 2000, []Kind{RQAOverflow, StuckRow}},
		{"wrf", "baseline", 1000, []Kind{StuckRow}},
		{"mcf", "blockhammer", 1000, nil},
	}
	for _, c := range cases {
		p := r.PlanFor(c.workload, c.scheme, c.trh)
		var got []Kind
		for _, a := range p.Arms {
			got = append(got, a.Kind)
		}
		if !reflect.DeepEqual(got, c.wantKinds) {
			t.Fatalf("PlanFor(%s,%s,%d) = %v, want %v", c.workload, c.scheme, c.trh, got, c.wantKinds)
		}
	}
	// Nil rules match nothing.
	var nilRules *Rules
	if !nilRules.PlanFor("xz", "rrs", 1000).Empty() || nilRules.String() != "" {
		t.Fatal("nil *Rules must be inert")
	}
}
