package security

import (
	"testing"

	"repro/internal/dram"
)

const ms = dram.Millisecond

func TestViolationAtThreshold(t *testing.T) {
	m := NewMonitor(100, 64*ms)
	row := dram.Row(7)
	// The monitor promotes a row to exact tracking only at the T_RH/4
	// coarse floor, so its exact count lags the true count by at most 25
	// here: 130 true ACTs guarantee a detected violation.
	var flaggedAt int
	for i := 0; i < 130; i++ {
		m.RecordACT(row, dram.PS(i)*1000)
		if m.Violated() && flaggedAt == 0 {
			flaggedAt = i + 1
		}
	}
	if !m.Violated() {
		t.Fatal("130 ACTs within window not flagged at T_RH=100")
	}
	if flaggedAt < 100 {
		t.Fatalf("flagged at true count %d, before the threshold", flaggedAt)
	}
	v := m.Violations()[0]
	if v.Row != row || v.Count < 100 {
		t.Fatalf("violation = %+v", v)
	}
}

func TestNoViolationBelowThreshold(t *testing.T) {
	m := NewMonitor(100, 64*ms)
	for i := 0; i < 99; i++ {
		m.RecordACT(dram.Row(7), dram.PS(i)*1000)
	}
	if m.Violated() {
		t.Fatal("99 ACTs flagged at T_RH=100")
	}
	// The reported max is a lower bound: above the promotion point but
	// never above the true count.
	if row, n := m.MaxWindowCount(); row != 7 || n > 99 || n < 99-25 {
		t.Fatalf("max window = %d@%d", n, row)
	}
}

func TestSlidingWindowExpiry(t *testing.T) {
	m := NewMonitor(100, 10*ms)
	row := dram.Row(3)
	// 60 ACTs early, 60 ACTs much later: never 100 within any 10ms window.
	for i := 0; i < 60; i++ {
		m.RecordACT(row, dram.PS(i)*1000)
	}
	for i := 0; i < 60; i++ {
		m.RecordACT(row, 20*ms+dram.PS(i)*1000)
	}
	if m.Violated() {
		t.Fatal("expired activations counted")
	}
}

func TestStraddlingWindowDetected(t *testing.T) {
	// 60 ACTs just before a window boundary plus 60 just after must be
	// caught: the attack the paper's half-threshold tracker provisioning
	// targets (property P1).
	m := NewMonitor(100, 10*ms)
	row := dram.Row(3)
	// 80 + 80 ACTs 2ms apart: 160 land inside one 10ms window. The
	// monitor promotes the row to exact tracking at the T_RH/4 = 25th
	// ACT, so its lower bound still comfortably crosses 100.
	for i := 0; i < 80; i++ {
		m.RecordACT(row, 9*ms+dram.PS(i)*1000)
	}
	for i := 0; i < 80; i++ {
		m.RecordACT(row, 11*ms+dram.PS(i)*1000)
	}
	if !m.Violated() {
		t.Fatal("boundary-straddling hammering missed")
	}
}

func TestColdRowsStayCheap(t *testing.T) {
	m := NewMonitor(1000, 64*ms)
	// Touch many rows a few times each: none should be promoted to exact
	// tracking (floor is T_RH/4 = 250).
	for r := 0; r < 10000; r++ {
		for i := 0; i < 3; i++ {
			m.RecordACT(dram.Row(r), dram.PS(r*10+i))
		}
	}
	if n := len(m.HotRows()); n != 0 {
		t.Fatalf("%d cold rows promoted", n)
	}
	if m.TotalACTs() != 30000 {
		t.Fatalf("acts = %d", m.TotalACTs())
	}
}

func TestPromotionFloor(t *testing.T) {
	m := NewMonitor(100, 64*ms) // floor = 25
	row := dram.Row(5)
	for i := 0; i < 30; i++ {
		m.RecordACT(row, dram.PS(i)*1000)
	}
	hot := m.HotRows()
	if len(hot) != 1 || hot[0] != row {
		t.Fatalf("hot rows = %v", hot)
	}
	if m.PeakWindowCount(row) == 0 {
		t.Fatal("no peak recorded for hot row")
	}
}

func TestAttachObservesRankACTs(t *testing.T) {
	geom := dram.Geometry{Banks: 2, RowsPerBank: 64, RowBytes: 512, LineBytes: 64}
	rank := dram.NewRank(geom, dram.DDR4())
	m := NewMonitor(10, 64*ms)
	m.Attach(rank)
	a, b := geom.RowOf(0, 1), geom.RowOf(0, 2)
	at := dram.PS(0)
	for i := 0; i < 12; i++ { // alternate: every access activates
		done := rank.Access(a, false, at)
		done2 := rank.Access(b, false, done)
		at = done2
	}
	if !m.Violated() {
		t.Fatal("monitor attached to rank missed hammering")
	}
}

func TestReset(t *testing.T) {
	m := NewMonitor(10, 64*ms)
	for i := 0; i < 20; i++ {
		m.RecordACT(dram.Row(1), dram.PS(i))
	}
	m.Reset()
	if m.Violated() || m.TotalACTs() != 0 || len(m.HotRows()) != 0 {
		t.Fatal("reset incomplete")
	}
	if _, n := m.MaxWindowCount(); n != 0 {
		t.Fatal("max not reset")
	}
}

func TestTimeBackwardsPanics(t *testing.T) {
	m := NewMonitor(100, 10*ms)
	m.RecordACT(dram.Row(1), 40*ms)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on time reversal")
		}
	}()
	m.RecordACT(dram.Row(1), 5*ms)
}

// TestLateACTAcrossHalfWindowRoll feeds the monitor ACTs slightly out of
// timestamp order, as cross-bank ACTs reach it. A late ACT that straddles
// the 32 ms half-window roll is counted in the previous half-window
// instead of panicking, and a late ACT of a hot row is inserted in order,
// so later trims drop exactly the ACTs that left the window.
func TestLateACTAcrossHalfWindowRoll(t *testing.T) {
	m := NewMonitor(40, 64*ms) // promotion floor 10
	cold, other := dram.Row(1), dram.Row(2)
	for i := 0; i < 9; i++ {
		m.RecordACT(cold, dram.PS(20+i)*ms)
	}
	m.RecordACT(other, 33*ms) // rolls into the second half-window
	m.RecordACT(cold, 32*ms-1)
	if hot := m.HotRows(); len(hot) != 1 || hot[0] != cold {
		t.Fatalf("hot rows %v: the late ACT should count toward the first half-window and promote row %d", hot, cold)
	}

	m = NewMonitor(4, 64*ms) // promotion floor 1: every ACT is exact
	row := dram.Row(7)
	m.RecordACT(row, 10*ms)
	m.RecordACT(other, 33*ms)
	m.RecordACT(row, 33*ms)
	m.RecordACT(row, 31*ms) // late: 10, 31, 33 in one window
	// At 95.5 ms the window holds 33 and 95.5 only; an unsorted queue
	// would keep 31 behind 33 and count 3, then reach T_RH at 96 ms.
	m.RecordACT(row, 95*ms+ms/2)
	m.RecordACT(row, 96*ms)
	if m.Violated() {
		t.Fatalf("violations %+v: the trim kept an ACT that left the window", m.Violations())
	}
	if n := m.PeakWindowCount(row); n != 3 {
		t.Fatalf("peak window count %d, want 3", n)
	}
}

func TestConstructorPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewMonitor(1, 64*ms) },
		func() { NewMonitor(100, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestThresholdAccessor(t *testing.T) {
	if m := NewMonitor(123, 64*ms); m.Threshold() != 123 {
		t.Fatal("threshold accessor")
	}
}
