// Package power estimates DRAM power from rank activity counters using
// the standard IDD-based methodology (Micron's DDR4 power calculator
// model): background current, an activate/precharge energy per row cycle,
// per-burst read/write energies, and refresh energy.
//
// The paper reports AQUA's DRAM power overhead as +0.7% (8.5mW) using
// gem5's DDR4 power model (Section V-H); this package reproduces that
// *measurement* — run a workload with and without AQUA and diff the
// estimates — rather than only quoting the constant.
package power

import (
	"fmt"

	"repro/internal/dram"
)

// IDD holds the datasheet current parameters (milliamps) and supply
// voltage used by the estimate.
type IDD struct {
	VDD float64 // supply voltage (V)
	// IDD0: one-bank activate-precharge current (average over tRC).
	IDD0 float64
	// IDD2N: precharge standby current.
	IDD2N float64
	// IDD3N: active standby current.
	IDD3N float64
	// IDD4R / IDD4W: burst read / write currents.
	IDD4R float64
	IDD4W float64
	// IDD5B: burst refresh current.
	IDD5B float64
}

// MicronDDR4 returns representative values for an 8Gb DDR4-2400 device
// (MT40A2G4-class, the paper's Table I part), scaled to the x16 rank the
// simulator models. Values are datasheet-order-of-magnitude; the paper's
// power result is a relative comparison, which these support.
func MicronDDR4() IDD {
	return IDD{
		VDD:   1.2,
		IDD0:  58,
		IDD2N: 34,
		IDD3N: 46,
		IDD4R: 150,
		IDD4W: 140,
		IDD5B: 255,
	}
}

// Estimate is a power breakdown in milliwatts, averaged over the elapsed
// interval.
type Estimate struct {
	Background float64
	ActPre     float64
	Read       float64
	Write      float64
	Refresh    float64
}

// Total sums the components.
func (e Estimate) Total() float64 {
	return e.Background + e.ActPre + e.Read + e.Write + e.Refresh
}

// String renders the breakdown.
func (e Estimate) String() string {
	return fmt.Sprintf("%.1f mW (bg %.1f, act/pre %.1f, rd %.1f, wr %.1f, ref %.1f)",
		e.Total(), e.Background, e.ActPre, e.Read, e.Write, e.Refresh)
}

// FromStats estimates average power from rank activity over the elapsed
// simulated time.
func FromStats(idd IDD, timing dram.Timing, stats dram.RankStats, elapsed dram.PS) Estimate {
	if elapsed <= 0 {
		return Estimate{}
	}
	sec := float64(elapsed) / 1e12

	// Energy helpers: E = (I_op - I_standby) * VDD * t_op, in joules.
	energy := func(deltaMA float64, dur dram.PS) float64 {
		return deltaMA / 1000 * idd.VDD * float64(dur) / 1e12
	}

	eAct := energy(idd.IDD0-idd.IDD3N, timing.TRC)
	eRead := energy(idd.IDD4R-idd.IDD3N, timing.TBL)
	eWrite := energy(idd.IDD4W-idd.IDD3N, timing.TBL)
	eRef := energy(idd.IDD5B-idd.IDD3N, timing.TRFC)

	mw := func(joules float64) float64 { return joules / sec * 1000 }

	return Estimate{
		Background: idd.IDD3N / 1000 * idd.VDD * 1000, // continuous standby, in mW
		ActPre:     mw(float64(stats.Activates) * eAct),
		Read:       mw(float64(stats.Reads) * eRead),
		Write:      mw(float64(stats.Writes) * eWrite),
		Refresh:    mw(float64(stats.Refreshes) * eRef),
	}
}
