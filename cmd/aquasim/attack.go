package main

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/flipmodel"
	"repro/internal/sim"
)

// attackNames lists the patterns -attack accepts, in -list order.
var attackNames = []string{
	"single-sided", "double-sided", "many-sided", "half-double", "adaptive", "dos", "table-hammer",
}

// attackStream builds the named attack's request stream against scheme at
// threshold trh. Every pattern but half-double makes 4*T_RH aggressor
// activations.
func attackStream(name string, scheme sim.Scheme, trh int64) (cpu.Stream, error) {
	region := sim.VisibleRegion(sim.Config{})
	geom := region.Geom
	acts := 4 * trh
	victim := geom.RowOf(3, 5000)
	switch name {
	case "single-sided":
		return attack.SingleSided(geom, geom.RowOf(0, 777), region.VisibleRowsPerBank, acts), nil
	case "double-sided":
		return attack.DoubleSided(geom, victim, acts), nil
	case "many-sided":
		return attack.ManySided(geom, victim, 4, acts), nil
	case "half-double":
		// T_RH^2 rounds, as examples/halfdouble issues: enough mitigating
		// refreshes of the distance-1 rows for victim refresh to flip the
		// distance-2 victim itself.
		return attack.HalfDouble(geom, victim, trh*trh), nil
	case "adaptive":
		return attack.AdaptiveHammer(geom, geom.RowOf(0, 42), region.VisibleRowsPerBank, acts), nil
	case "dos":
		return attack.NewRotatingDoS(geom, region.VisibleRowsPerBank, trh/2, 16*acts), nil
	case "table-hammer":
		if scheme != sim.SchemeAquaMemMapped {
			return nil, errors.New("table-hammer targets AQUA's memory-mapped tables; use -scheme aqua-memmapped")
		}
		// Quarantine two rows in each of two bloom groups of the first FPT
		// table row's coverage, then sweep the groups' other rows so every
		// sweep access walks to the in-DRAM table.
		setup := []dram.Row{geom.RowOf(0, 0), geom.RowOf(0, 1), geom.RowOf(0, 16), geom.RowOf(0, 17)}
		var sweep []dram.Row
		for i := 2; i < 16; i++ {
			sweep = append(sweep, geom.RowOf(0, i))
		}
		visible := core.VisibleRowsPerBankFor(geom, dram.DDR4(), core.Config{TRH: trh, Mode: core.ModeMemMapped})
		return attack.TableHammer(geom, visible, setup, sweep, trh/2, acts/8), nil
	}
	return nil, fmt.Errorf("unknown attack %q (try -list)", name)
}

// runAttack drives the named attack through one MLP-1 core of a full
// system with the security monitor and the charge model attached, and
// reports the security outcome.
func runAttack(ctx context.Context, stdout io.Writer, name string, scheme sim.Scheme, trh int64, seed uint64) error {
	stream, err := attackStream(name, scheme, trh)
	if err != nil {
		return err
	}
	sys, err := sim.NewSystemE(sim.Config{
		Scheme:  scheme,
		TRH:     trh,
		Seed:    seed,
		Cores:   1,
		CoreCfg: cpu.Config{MLP: 1},
		Monitor: true,
	}, []cpu.Stream{stream})
	if err != nil {
		return err
	}
	// The charge model flips at 2*T_RH combined disturbance: T_RH is
	// defined per aggressor row (Section VI), and a double-sided victim
	// receives two rows' contributions.
	fm := flipmodel.New(sys.Rank.Geometry(), 2*trh, sys.Cfg.Timing.TREFW)
	fm.Attach(sys.Rank)
	res, err := sys.RunCtx(ctx, 0)
	if err != nil {
		return err
	}

	mon := sys.Monitor
	fmt.Fprintf(stdout, "attack          %s vs %s (T_RH=%d)\n", name, sys.Mit.Name(), trh)
	fmt.Fprintf(stdout, "attack time     %.2f ms simulated\n", float64(res.SimTime)/1e9)
	fmt.Fprintf(stdout, "total ACTs      %d\n", mon.TotalACTs())
	row, peak := mon.MaxWindowCount()
	fmt.Fprintf(stdout, "peak row ACTs   %d (row %d) in any 64ms window\n", peak, row)
	st := res.MitStats
	fmt.Fprintf(stdout, "mitigations     %d (migrations %d, victim refreshes %d)\n",
		st.Mitigations, st.RowMigrations, st.VictimRefreshes)
	if fm.Flipped() {
		f := fm.Flips()[0]
		fmt.Fprintf(stdout, "BIT FLIPS       %d (first: row %d, disturbance %d)\n",
			len(fm.Flips()), f.Victim, f.Disturbance)
	} else {
		fmt.Fprintf(stdout, "bit flips       none (charge model)\n")
	}
	if mon.Violated() {
		v := mon.Violations()[0]
		fmt.Fprintf(stdout, "VIOLATED        row %d reached %d ACTs >= T_RH\n", v.Row, v.Count)
	} else {
		fmt.Fprintf(stdout, "invariant held  no physical row reached T_RH activations\n")
	}
	return nil
}
