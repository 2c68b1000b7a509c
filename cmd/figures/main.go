// Command figures regenerates the tables and figures of the AQUA paper's
// evaluation as text.
//
// Usage:
//
//	figures -all                     # everything (default)
//	figures -figure 7                # one figure (2,3,6,7,9,10,11,12)
//	figures -table 3                 # one table (2..7)
//	figures -workloads spec          # 18 SPEC workloads only (default all 34)
//	figures -window 16               # simulated window in ms (default 64)
//	figures -j 8                     # concurrent simulations (0 = all cores)
//
// Robustness (see DESIGN.md "Failure model & graceful degradation"):
//
//	figures -faults 'xz/rrs/1000=panic@once:0'   # deterministic fault injection
//	figures -timeout 10m                         # cancel the whole run after a deadline
//
// Incremental recomputation and resume (see DESIGN.md "Result cache &
// incremental recomputation"):
//
//	figures -cache-dir ~/.cache/aqua             # persist finished cells; later runs serve them
//
// Without -cache-dir nothing persists and every cell simulates. An
// interrupted run resumes by rerunning it with the same -cache-dir:
// finished cells are served, the rest simulate. Cached output is
// byte-identical to a cold run; hit/miss/dedup counts are reported on
// stderr at exit.
//
// A failing cell no longer aborts the run: every figure that doesn't
// depend on it still renders byte-identically, failed figures are listed
// in a summary table, and the exit status is 1.
//
// Profiling the simulator (see DESIGN.md "Performance model"):
//
//	figures -cpuprofile cpu.pb.gz    # pprof CPU profile of the run
//	figures -memprofile mem.pb.gz    # heap profile written at exit
//	figures -trace trace.out         # runtime execution trace
//
// Simulation-backed outputs share one result cache, so -all simulates each
// cell (variants, tier counts and the co-run included) exactly once; with
// -j > 1 the grid fans out to a worker pool, and the emitted text is
// byte-identical to a serial run (results are collected in canonical cell
// order).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"repro"
	"repro/internal/cellcache"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	// Indirection so deferred cleanup (profiles, stats lines) runs even
	// when the process exits non-zero for failed cells.
	os.Exit(realMain())
}

func realMain() int {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	figure := flag.Int("figure", 0, "regenerate one figure (2,3,6,7,9,10,11,12)")
	table := flag.Int("table", 0, "regenerate one table (2..7)")
	section := flag.String("section", "", `regenerate one section ("5f" sensitivity, "5h" power)`)
	all := flag.Bool("all", false, "regenerate everything")
	workloads := flag.String("workloads", "all", `workload set: "all" (34) or "spec" (18)`)
	windowMS := flag.Int("window", 64, "simulated window per run in ms (>= 1)")
	seed := flag.Uint64("seed", 0, "experiment seed (0 = default)")
	par := flag.Int("j", 0, "concurrent simulations (0 = one per core, 1 = serial)")
	faultSpec := flag.String("faults", "", "fault-injection rules, e.g. 'xz/rrs/1000=panic@once:0;*/aqua-memmapped/*=ecc-flip@p:0.01'")
	timeout := flag.Duration("timeout", 0, "cancel the whole run after this wall-clock duration (0 = none)")
	cacheDir := flag.String("cache-dir", "", "result cache directory: completed cells persist here, so a rerun resumes an interrupted run and warms future ones (empty = no cache)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()
	if *windowMS < 1 {
		log.Fatalf("-window %d: must be at least 1 ms", *windowMS)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			log.Fatalf("trace: %v", err)
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
		}()
	}

	if *figure == 0 && *table == 0 && *section == "" {
		*all = true
	}

	rules, err := fault.ParseRules(*faultSpec)
	if err != nil {
		log.Fatalf("-faults: %v", err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := repro.LabOptions{
		Window:   dram.PS(*windowMS) * dram.Millisecond,
		Seed:     *seed,
		Parallel: *par,
		Faults:   rules,
		Context:  ctx,
	}
	switch *workloads {
	case "all":
		opts.Workloads = repro.AllWorkloads()
	case "spec":
		opts.Workloads = repro.SPECWorkloads()
	default:
		log.Fatalf("unknown workload set %q", *workloads)
	}
	lab := repro.NewLab(opts)
	defer func() {
		if cs := lab.CellStats(); cs.TraceCaptures > 0 || cs.TraceReplays > 0 {
			fmt.Fprintf(os.Stderr, "[trace tier: %d streams captured, %d replayed]\n",
				cs.TraceCaptures, cs.TraceReplays)
		}
	}()
	if *cacheDir != "" {
		store, err := cellcache.New(*cacheDir)
		if err != nil {
			log.Fatalf("-cache-dir: %v", err)
		}
		lab.AttachCache(store)
		defer func() {
			if cs := lab.CellStats(); cs.Requests > 0 {
				fmt.Fprintf(os.Stderr, "[cell cache: %d hits, %d misses, %d deduped, %d simulated]\n",
					cs.CacheHits, cs.CacheMisses, cs.Deduped(), cs.Simulated)
			}
		}()
	}

	type job struct {
		name string
		fn   func() (string, error)
	}
	static := func(s string) func() (string, error) {
		return func() (string, error) { return s, nil }
	}
	jobs := []job{
		{"table 1", static(repro.Table1())},
		{"figure 2", static(repro.Figure2())},
		{"table 2", lab.Table2},
		{"figure 3", lab.Figure3},
		{"table 3", static(repro.Table3())},
		{"table 4", lab.Table4},
		{"table 5", static(repro.Table5())},
		{"figure 6", lab.Figure6},
		{"figure 7", lab.Figure7},
		{"figure 9", lab.Figure9},
		{"figure 10", lab.Figure10},
		{"figure 11", lab.Figure11},
		{"figure 12", static(repro.Figure12())},
		{"table 6", lab.Table6},
		{"table 7", static(repro.Table7() + "\n" + repro.StorageReport())},
		{"section 5f", lab.SensitivityVF},
		{"section 5h", lab.PowerReport},
		{"section 6c", func() (string, error) { return lab.CoRunReport("gcc") }},
	}

	cancelled := func(err error) bool {
		return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}

	if *all {
		// Warm the union grid once up front so the worker pool sees the
		// whole evaluation at full width, instead of draining per figure.
		// A failing cell is not fatal here: the figures that depend on it
		// will report it, and every other figure still renders.
		start := time.Now()
		if err := lab.Precompute(repro.PaperGrid()...); err != nil {
			if cancelled(err) {
				log.Printf("precompute: %v", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "[precompute: %v — continuing with healthy cells]\n", err)
		}
		if d := time.Since(start); d > time.Second {
			fmt.Fprintf(os.Stderr, "[grid precomputed in %s]\n\n", d.Round(time.Millisecond))
		}
	}

	want := func(j job) bool {
		if *all {
			return true
		}
		return (*figure != 0 && j.name == fmt.Sprintf("figure %d", *figure)) ||
			(*table != 0 && j.name == fmt.Sprintf("table %d", *table)) ||
			(*section != "" && j.name == "section "+*section)
	}

	type failure struct {
		name string
		err  error
	}
	var failures []failure
	ran := 0
	for _, j := range jobs {
		if !want(j) {
			continue
		}
		start := time.Now()
		out, err := j.fn()
		if err != nil {
			if cancelled(err) {
				log.Printf("%s: %v", j.name, err)
				return 1
			}
			// Emit the partial run: the failed figure is skipped, every
			// other output still renders from the healthy cells.
			failures = append(failures, failure{j.name, err})
			fmt.Fprintf(os.Stderr, "[%s FAILED: %v]\n\n", j.name, err)
			continue
		}
		fmt.Println(out)
		if d := time.Since(start); d > time.Second {
			fmt.Fprintf(os.Stderr, "[%s regenerated in %s]\n\n", j.name, d.Round(time.Millisecond))
		}
		ran++
	}
	if ran == 0 && len(failures) == 0 {
		log.Printf("nothing selected: figure %d / table %d / section %q not available", *figure, *table, *section)
		return 1
	}

	// Degraded cells that still completed (injected hardware faults the
	// scheme recovered from) are reported but don't fail the run.
	if faulted := lab.FaultedCells(); len(faulted) > 0 {
		t := stats.NewTable("Fault-injection summary: degraded cells (run completed)",
			"Workload", "Scheme", "T_RH", "Faults injected")
		for _, c := range faulted {
			scheme := c.Scheme.String()
			if c.Variant != "" {
				scheme += " (" + c.Variant + ")"
			}
			t.AddRow(c.Workload, scheme, fmt.Sprintf("%d", c.TRH), fmt.Sprintf("%d", c.Injected))
		}
		fmt.Println(t.String())
	}

	if len(failures) > 0 {
		t := stats.NewTable("Failure summary: outputs lost to failed cells",
			"Output", "Cell", "Cause")
		for _, f := range failures {
			cell, cause := "-", f.err.Error()
			var ce *sim.CellError
			if errors.As(f.err, &ce) {
				cell = ce.Label()
				cause = ce.Err.Error()
			}
			t.AddRow(f.name, cell, cause)
		}
		fmt.Println(t.String())
		log.Printf("%d of %d selected outputs failed", len(failures), ran+len(failures))
		return 1
	}
	return 0
}
