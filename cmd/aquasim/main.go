// Command aquasim runs one simulation on the baseline 16GB DDR4 system.
// By default it runs one workload under one Rowhammer mitigation scheme
// and reports performance and mitigation statistics. With -attack it
// runs one attack pattern on a single core instead and reports the
// security outcome: the peak sliding-window activation count of any
// physical row versus the Rowhammer threshold, whether any row crossed
// it, and whether the charge model flipped a bit.
//
// Usage:
//
//	aquasim -workload lbm -scheme aqua-memmapped -trh 1000
//	aquasim -workload mix03 -scheme rrs -trh 1000 -window 16
//	aquasim -faults '*/*/*=ecc-flip@p:0.01' -workload lbm
//	aquasim -timeout 2m -workload mix03
//	aquasim -cache-dir ~/.cache/aqua -workload lbm   # persist + reuse results
//	aquasim -attack double-sided -scheme baseline              # succeeds (flips)
//	aquasim -attack double-sided -scheme aqua-memmapped        # defeated
//	aquasim -attack half-double -scheme victim-refresh -trh 400 # Half-Double wins
//	aquasim -attack dos -scheme aqua-sram                      # bounded slowdown
//	aquasim -attack adaptive -scheme rrs
//	aquasim -list
//
// Schemes: baseline, aqua-sram, aqua-memmapped, rrs, blockhammer,
// victim-refresh. Attacks: single-sided, double-sided, many-sided,
// half-double, adaptive, dos, table-hammer.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/cellcache"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/mitigation"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aquasim: ")
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	var ce *sim.CellError
	if errors.As(err, &ce) && len(ce.Stack) > 0 {
		log.Printf("%v", ce)
		log.Fatalf("recovered panic stack:\n%s", ce.Stack)
	}
	log.Fatal(err)
}

// run parses args and runs the workload or attack they select, writing
// the report to stdout.
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("aquasim", flag.ContinueOnError)
	workload := flags.String("workload", "lbm", "workload name (SPEC name or mixNN)")
	attackName := flags.String("attack", "", "run this attack pattern on one core instead of a workload")
	scheme := flags.String("scheme", "aqua-memmapped", "mitigation scheme")
	trh := flags.Int64("trh", 1000, "Rowhammer threshold T_RH (>= 2)")
	windowMS := flags.Int("window", 64, "simulated window in ms (>= 1)")
	seed := flags.Uint64("seed", 0, "experiment seed")
	faultSpec := flags.String("faults", "", "fault-injection rules, e.g. 'lbm/aqua-memmapped/1000=ecc-flip@p:0.01'")
	timeout := flags.Duration("timeout", 0, "cancel the run after this wall-clock duration (0 = none)")
	cacheDir := flags.String("cache-dir", "", "result cache directory shared with cmd/figures (empty = no cache)")
	jsonOut := flags.Bool("json", false, "emit machine-readable JSON instead of text")
	list := flags.Bool("list", false, "list workloads, schemes and attacks")
	if err := flags.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(stdout, "workloads:")
		for _, n := range repro.AllWorkloads() {
			fmt.Fprintln(stdout, "  ", n)
		}
		fmt.Fprintln(stdout, "schemes:")
		for s := sim.SchemeBaseline; s <= sim.SchemeVictimRefresh; s++ {
			fmt.Fprintln(stdout, "  ", s)
		}
		fmt.Fprintln(stdout, "attacks:")
		for _, n := range attackNames {
			fmt.Fprintln(stdout, "  ", n)
		}
		return nil
	}

	sch, err := sim.ParseScheme(*scheme)
	if err != nil {
		return fmt.Errorf("%w (try -list)", err)
	}
	if err := sim.CheckTRH(*trh); err != nil {
		return fmt.Errorf("-trh: %w", err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *attackName != "" {
		// The flags that configure a workload run have no meaning here.
		var set []string
		flags.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workload", "window", "faults", "cache-dir", "json":
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			return fmt.Errorf("-attack runs no workload: %s cannot be combined with it", strings.Join(set, ", "))
		}
		return runAttack(ctx, stdout, *attackName, sch, *trh, *seed)
	}

	if *windowMS < 1 {
		return fmt.Errorf("-window %d: must be at least 1 ms", *windowMS)
	}
	rules, err := fault.ParseRules(*faultSpec)
	if err != nil {
		return fmt.Errorf("-faults: %w", err)
	}
	runner, err := sim.NewRunnerE(sim.ExpConfig{
		Window:    dram.PS(*windowMS) * dram.Millisecond,
		Seed:      *seed,
		Calibrate: true,
		Faults:    rules,
	})
	if err != nil {
		return err
	}
	useCache := *cacheDir != ""
	if useCache {
		store, err := cellcache.New(*cacheDir)
		if err != nil {
			return fmt.Errorf("-cache-dir: %w", err)
		}
		runner.AttachCellCache(store)
	}

	start := time.Now()
	cell, err := runner.RunCtx(ctx, *workload, sim.GridCell{Scheme: sch, TRH: *trh})
	if err != nil {
		return err
	}

	res := cell.Result
	if *jsonOut {
		bd := sim.BreakdownOf(res)
		out := map[string]interface{}{
			"workload":         *workload,
			"scheme":           sch.String(),
			"trh":              *trh,
			"sim_time_ms":      float64(res.SimTime) / 1e9,
			"instructions":     res.Instr,
			"requests":         res.Requests,
			"ipc":              res.IPC,
			"normalized_ipc":   cell.NormIPC,
			"slowdown_pct":     (1/cell.NormIPC - 1) * 100,
			"avg_latency_ns":   float64(res.CtrlStats.AvgLatency()) / 1e3,
			"mitigations":      res.MitStats.Mitigations,
			"row_migrations":   res.MitStats.RowMigrations,
			"migrations_per64": res.MigrationsPer64ms,
			"evictions":        res.MitStats.Evictions,
			"channel_busy_ms":  float64(res.MitStats.ChannelBusy) / 1e9,
			"dram_power_mw":    res.DRAMPowerMW,
			"lookup_breakdown": map[string]float64{
				"bloom_filtered": bd.BloomFiltered,
				"cache_hit":      bd.CacheHit,
				"singleton":      bd.Singleton,
				"dram":           bd.DRAM,
			},
			"wall_time":       time.Since(start).String(),
			"faults_injected": res.FaultStats.Injected,
		}
		if useCache {
			cs := runner.CellStats()
			out["cache_hits"] = cs.CacheHits
			out["cache_misses"] = cs.CacheMisses
			out["cache_deduped"] = cs.Deduped()
			out["cache_simulated"] = cs.Simulated
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(stdout, "workload        %s\n", *workload)
	fmt.Fprintf(stdout, "scheme          %s (T_RH=%d)\n", sch, *trh)
	fmt.Fprintf(stdout, "simulated time  %.2f ms\n", float64(res.SimTime)/1e9)
	fmt.Fprintf(stdout, "instructions    %d\n", res.Instr)
	fmt.Fprintf(stdout, "requests        %d\n", res.Requests)
	fmt.Fprintf(stdout, "IPC             %.3f\n", res.IPC)
	fmt.Fprintf(stdout, "normalized IPC  %.3f (slowdown %.1f%%)\n", cell.NormIPC, (1/cell.NormIPC-1)*100)
	fmt.Fprintf(stdout, "avg latency     %.1f ns\n", float64(res.CtrlStats.AvgLatency())/1e3)

	st := res.MitStats
	if sch != repro.SchemeBaseline {
		fmt.Fprintf(stdout, "mitigations     %d\n", st.Mitigations)
		fmt.Fprintf(stdout, "row migrations  %d (%.0f per 64ms)\n", st.RowMigrations, res.MigrationsPer64ms)
		fmt.Fprintf(stdout, "evictions       %d\n", st.Evictions)
		fmt.Fprintf(stdout, "channel busy    %.2f ms (mitigation)\n", float64(st.ChannelBusy)/1e9)
		if st.ThrottleDelay > 0 {
			fmt.Fprintf(stdout, "throttle delay  %.2f ms\n", float64(st.ThrottleDelay)/1e9)
		}
		if total := st.TotalLookups(); total > 0 && sch == repro.SchemeAquaMemMapped {
			bd := sim.BreakdownOf(res)
			fmt.Fprintf(stdout, "FPT lookups     %.1f%% bloom-filtered, %.1f%% cache hits, %.2f%% singleton, %.3f%% DRAM\n",
				bd.BloomFiltered*100, bd.CacheHit*100, bd.Singleton*100, bd.DRAM*100)
		}
		var classes string
		for c := mitigation.LookupClass(0); c < mitigation.NumLookupClasses; c++ {
			if st.Lookups[c] > 0 {
				classes += fmt.Sprintf(" %s=%d", c, st.Lookups[c])
			}
		}
		if classes != "" {
			fmt.Fprintf(stdout, "lookup classes %s\n", classes)
		}
	}
	if fs := res.FaultStats; fs.Injected > 0 {
		fmt.Fprintf(stdout, "faults injected %d (migration aborts %d, overflow fallbacks %d, refresh collisions %d)\n",
			fs.Injected, st.MigrationAborts, st.OverflowFallbacks, res.CtrlStats.RefreshCollisions)
	}
	if useCache {
		if cs := runner.CellStats(); cs.Requests > 0 {
			fmt.Fprintf(stdout, "result cache    %d hits, %d misses, %d simulated\n",
				cs.CacheHits, cs.CacheMisses, cs.Simulated)
		}
	}
	fmt.Fprintf(stdout, "wall time       %s\n", time.Since(start).Round(time.Millisecond))
	return nil
}
