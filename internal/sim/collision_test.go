package sim

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
)

// pairStream emits n back-to-back requests (GapInstr 0) to one row.
type pairStream struct {
	left int
	row  dram.Row
}

func (s *pairStream) Next() (cpu.Request, bool) {
	if s.left == 0 {
		return cpu.Request{}, false
	}
	s.left--
	return cpu.Request{Row: s.row, GapInstr: 0}, true
}

// TestRefreshEpochIssueCollision engineers a three-way equal-timestamp
// collision through the full run loop: the timing is bent so the first
// access completes exactly at tREFI, the epoch length equals tREFI, and
// the core (MLP=1, zero gap) issues its second request at that same
// picosecond. The documented class order — refresh(0) < epoch(1) <
// core-issue(4) — requires the refresh and the epoch to be serviced
// before the access runs, which is observable in the analytic completion
// time: the second activation must wait out tRFC behind the refresh.
func TestRefreshEpochIssueCollision(t *testing.T) {
	timing := dram.DDR4()
	// Cold-bank access latency: ACT -> column (tRCD) -> data (tCL) -> burst
	// end (tBL). All integer picoseconds, so the collision is exact.
	firstDone := timing.TRCD + timing.TCL + timing.TBL
	timing.TREFI = firstDone
	timing.TRFC = 20000 // keep tRFC < tREFI so the timing validates

	cfg := Config{
		Scheme:      SchemeBaseline,
		Timing:      timing,
		EpochLength: firstDone,
		Cores:       1,
		CoreCfg:     cpu.Config{MLP: 1},
	}
	row := dram.Baseline().RowOf(0, 3)
	sys := NewSystem(cfg, []cpu.Stream{&pairStream{left: 2, row: row}})
	res := sys.Run(0)

	if res.Requests != 2 {
		t.Fatalf("requests = %d, want 2", res.Requests)
	}
	// Exactly one refresh and one epoch fired — both due at firstDone, both
	// serviced by the second request's submission at that same timestamp.
	if res.CtrlStats.Refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1", res.CtrlStats.Refreshes)
	}
	if res.CtrlStats.Epochs != 1 {
		t.Fatalf("epochs = %d, want 1", res.CtrlStats.Epochs)
	}
	// The refresh ran first: it closed the row and blocked activations for
	// tRFC, so the second access is another cold-bank access starting at
	// tREFI + tRFC. Had the issue been serviced first, FinishTime would be
	// 2*firstDone (a row hit or even a miss costs less than the refresh
	// detour) and the refresh count above would still be 1 — the completion
	// time is what pins the order.
	want := timing.TREFI + timing.TRFC + firstDone
	if got := sys.Cores[0].FinishTime(); got != want {
		t.Fatalf("second completion = %d, want %d (refresh must precede the equal-time issue)", got, want)
	}
}
