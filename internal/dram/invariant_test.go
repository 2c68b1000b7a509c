package dram

import (
	"testing"

	"repro/internal/invariant"
)

// hammerBank alternates two rows of bank 0 so every access pays the full
// PRE -> ACT -> column sequence.
func hammerBank(r *Rank, g Geometry, rounds int) {
	at := PS(0)
	r0, r1 := g.RowOf(0, 0), g.RowOf(0, 1)
	for i := 0; i < rounds; i++ {
		at = r.Access(r0, i%2 == 0, at)
		at = r.Access(r1, false, at)
	}
}

func TestShadowCheckerCleanOnCorrectTiming(t *testing.T) {
	g := testGeom()
	r := NewRank(g, DDR4())
	chk := invariant.New()
	r.EnableInvariants(chk, DDR4())
	if !r.InvariantsEnabled() {
		t.Fatal("InvariantsEnabled() = false after enable")
	}

	hammerBank(r, g, 50)
	r.StreamRow(g.RowOf(1, 3), false, 0)
	r.StreamRow(g.RowOf(1, 4), true, 0)
	r.RefreshAll(10 * Microsecond)
	hammerBank(r, g, 20)
	// Two rows of each bank in turn: the second access misses an open
	// row, so the tRP check runs on every bank after the refresh.
	for b := 0; b < g.Banks; b++ {
		at := r.Access(g.RowOf(b, 5), false, 50*Microsecond)
		r.Access(g.RowOf(b, 6), true, at)
	}
	hammerBank(r, g, 20)

	if err := chk.Err(); err != nil {
		t.Fatalf("correctly-timed rank reported violations: %v", err)
	}
}

// TestShadowCheckerCatchesShortTRP runs a rank deliberately mis-configured
// with a tRP (and tRC) far below DDR4 against the real DDR4 reference: the
// scheduler happily issues ACTs right after PRE, and the shadow checker
// must flag every one of them.
func TestShadowCheckerCatchesShortTRP(t *testing.T) {
	g := testGeom()
	broken := DDR4()
	broken.TRP = 1 * Nanosecond
	broken.TRC = broken.TRCD + broken.TRP // minimum Validate allows
	r := NewRank(g, broken)
	chk := invariant.New()
	r.EnableInvariants(chk, DDR4())

	hammerBank(r, g, 10)

	if chk.Count() == 0 {
		t.Fatal("broken tRP produced no violations")
	}
	var sawTRP bool
	for _, v := range chk.Violations() {
		if v.Component != "dram" {
			t.Fatalf("unexpected component in %v", v)
		}
		if v.Rule == "tRP" {
			sawTRP = true
		}
	}
	if !sawTRP {
		t.Fatalf("no tRP violation among %d: %v", chk.Count(), chk.Violations()[0])
	}
}

// TestShadowCheckerCatchesShortTFAW mis-configures only the four-activate
// window and verifies the rank-level ring buffer catches the burst.
func TestShadowCheckerCatchesShortTFAW(t *testing.T) {
	g := Geometry{Banks: 8, RowsPerBank: 16, RowBytes: 1024, LineBytes: 64}
	broken := DDR4()
	broken.TFAW = 1 * Nanosecond
	r := NewRank(g, broken)
	chk := invariant.New()
	r.EnableInvariants(chk, DDR4())

	// Six ACTs to six different banks all requested at t=0: the broken
	// window lets the scheduler commit them ~1ns apart, far inside the
	// real 21ns four-activate window.
	for i := 0; i < 6; i++ {
		r.Access(g.RowOf(i, 0), false, 0)
	}

	var sawFAW bool
	for _, v := range chk.Violations() {
		if v.Rule == "tFAW" {
			sawFAW = true
		}
	}
	if !sawFAW {
		t.Fatalf("no tFAW violation in %d violations", chk.Count())
	}
}
