// Worst-case denial-of-service demo (Section VI-C): an adversary triggers
// a quarantine in every bank every T_RH/2 activations, keeping the channel
// as busy with migrations as AQUA allows. The paper bounds the resulting
// slowdown at 1 + B*2*t_mov/t_AGG ~= 2.95x; this example measures it.
//
//	go run ./examples/dos
package main

import (
	"fmt"

	"repro"
	"repro/internal/analytic"
	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/sim"
)

const (
	trh      = 1000
	requests = 400_000
)

// run drives the DoS stream through one core of a full system under
// scheme and returns the result.
func run(scheme sim.Scheme) sim.Result {
	region := sim.VisibleRegion(sim.Config{})
	s := attack.NewRotatingDoS(region.Geom, region.VisibleRowsPerBank, trh/2, requests)
	sys := sim.NewSystem(sim.Config{Scheme: scheme, TRH: trh, Cores: 1, CoreCfg: cpu.Config{MLP: 4}},
		[]cpu.Stream{s})
	return sys.Run(0)
}

func main() {
	geom := repro.BaselineGeometry()
	fmt.Printf("DoS pattern: in each of %d banks, hammer a fresh row %d times, repeat\n",
		geom.Banks, trh/2)

	base := run(sim.SchemeBaseline)
	aqua := run(sim.SchemeAquaSRAM)
	st := aqua.MitStats

	bound := analytic.WorstCaseSlowdown(analytic.BaselineRQAParams(trh / 2))
	fmt.Printf("\nbaseline:  %8.2f ms for %d requests\n", float64(base.SimTime)/1e9, requests)
	fmt.Printf("AQUA:      %8.2f ms (%d quarantines, %.2f ms of migration busy time)\n",
		float64(aqua.SimTime)/1e9, st.Mitigations, float64(st.ChannelBusy)/1e9)
	fmt.Printf("\nmeasured slowdown:   %.2fx\n", float64(aqua.SimTime)/float64(base.SimTime))
	fmt.Printf("analytical bound:    %.2fx (Section VI-C)\n", bound)
	fmt.Println("\nCompare Blockhammer's 1280x worst case (Table VI) — AQUA's DoS exposure")
	fmt.Println("is comparable to ordinary row-buffer-conflict slowdowns.")
}
