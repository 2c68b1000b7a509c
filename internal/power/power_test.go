package power

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dram"
)

func TestZeroElapsed(t *testing.T) {
	e := FromStats(MicronDDR4(), dram.DDR4(), dram.RankStats{}, 0)
	if e.Total() != 0 {
		t.Fatal("power from zero time")
	}
}

func TestBackgroundOnly(t *testing.T) {
	idd := MicronDDR4()
	e := FromStats(idd, dram.DDR4(), dram.RankStats{}, dram.PS(dram.Millisecond))
	want := idd.IDD3N / 1000 * idd.VDD * 1000
	if math.Abs(e.Background-want) > 1e-9 || e.ActPre != 0 {
		t.Fatalf("background = %g, want %g", e.Background, want)
	}
}

func TestComponentsScaleWithActivity(t *testing.T) {
	idd := MicronDDR4()
	tm := dram.DDR4()
	el := dram.PS(64 * dram.Millisecond)
	low := FromStats(idd, tm, dram.RankStats{Activates: 1000, Reads: 5000}, el)
	high := FromStats(idd, tm, dram.RankStats{Activates: 2000, Reads: 10000}, el)
	if math.Abs(high.ActPre-2*low.ActPre) > 1e-9 {
		t.Fatal("ActPre not linear in activates")
	}
	if math.Abs(high.Read-2*low.Read) > 1e-9 {
		t.Fatal("Read not linear in reads")
	}
}

func TestRefreshPowerRealistic(t *testing.T) {
	// 8205 refreshes per 64ms window is the steady DDR4 cadence; the
	// resulting refresh power should land in the tens of milliwatts for
	// these IDD values — the right order of magnitude for one device.
	idd := MicronDDR4()
	tm := dram.DDR4()
	refreshes := int64(tm.TREFW / tm.TREFI)
	e := FromStats(idd, tm, dram.RankStats{Refreshes: refreshes}, tm.TREFW)
	if e.Refresh < 1 || e.Refresh > 100 {
		t.Fatalf("refresh power = %g mW", e.Refresh)
	}
}

func TestOverheadOfMigrations(t *testing.T) {
	// A mitigated run with extra row streams must cost extra power, and
	// the fraction must be small when the extra activity is small —
	// mirroring the paper's +0.7% result.
	tm := dram.DDR4()
	el := dram.PS(64 * dram.Millisecond)
	base := dram.RankStats{Activates: 1_000_000, Reads: 3_000_000, Writes: 1_000_000, Refreshes: 8205}
	mit := base
	// 1000 migrations: 2 ACTs and 256 line transfers each.
	mit.Activates += 2000
	mit.Reads += 128_000
	mit.Writes += 128_000
	pb := FromStats(MicronDDR4(), tm, base, el).Total()
	extra := FromStats(MicronDDR4(), tm, mit, el).Total() - pb
	frac := extra / pb
	if extra <= 0 {
		t.Fatalf("extra = %g", extra)
	}
	if frac <= 0 || frac > 0.05 {
		t.Fatalf("fraction = %g, want small positive", frac)
	}
}

func TestEstimateString(t *testing.T) {
	e := Estimate{Background: 55, ActPre: 10}
	if !strings.Contains(e.String(), "65.0 mW") {
		t.Fatalf("string: %s", e.String())
	}
}
