// Half-Double demo (Figure 1 of the paper): the same attack pattern is
// launched against victim refresh and against AQUA.
//
// Victim refresh protects the rows adjacent to the aggressor — but each
// mitigating refresh is itself a row opening that disturbs rows one
// further out, so a heavy hammer of row A drives the distance-2 rows past
// the flip threshold. AQUA instead relocates the aggressor after T_RH/2
// activations, so no neighbourhood ever accumulates enough disturbance.
//
//	go run ./examples/halfdouble
package main

import (
	"fmt"

	"repro"
	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/flipmodel"
	"repro/internal/sim"
)

const trh = 400 // Rowhammer threshold for the demo

func main() {
	geom := repro.BaselineGeometry()
	victim := geom.RowOf(2, 1000)
	fmt.Printf("victim: bank %d row %d; attacker hammers the distance-2 ring\n\n",
		geom.BankOf(victim), geom.IndexOf(victim))

	run("victim-refresh", sim.SchemeVictimRefresh, geom, victim)
	run("aqua", sim.SchemeAquaMemMapped, geom, victim)
}

func run(name string, scheme sim.Scheme, geom dram.Geometry, victim dram.Row) {
	// Half-Double pattern: hammer the distance-2 ring hard, from one core.
	stream := attack.HalfDouble(geom, victim, trh*trh)
	sys := sim.NewSystem(sim.Config{Scheme: scheme, TRH: trh, Cores: 1, CoreCfg: cpu.Config{MLP: 1}},
		[]cpu.Stream{stream})

	// Flip threshold: 2*T_RH combined disturbance (T_RH is defined per
	// aggressor row; a victim has two distance-1 neighbours). The charge
	// model observes activations and the mitigating refreshes victim
	// refresh reports to the rank — the mechanism Half-Double exploits.
	fm := flipmodel.New(geom, 2*trh, sys.Cfg.Timing.TREFW)
	fm.Attach(sys.Rank)
	st := sys.Run(0).MitStats

	fmt.Printf("%-14s mitigations=%-5d refreshes=%-5d migrations=%-4d victim disturbance=%d\n",
		name, st.Mitigations, st.VictimRefreshes, st.RowMigrations, fm.Disturbance(victim))
	flipped := false
	for _, f := range fm.Flips() {
		if f.Victim == victim {
			flipped = true
		}
	}
	if flipped {
		fmt.Printf("%-14s >>> BIT FLIP in the distance-2 victim (Half-Double succeeded)\n\n", name)
	} else {
		fmt.Printf("%-14s victim intact\n\n", name)
	}
}
