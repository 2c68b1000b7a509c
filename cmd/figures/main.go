// Command figures regenerates the tables and figures of the AQUA paper's
// evaluation as text.
//
// Usage:
//
//	figures -all                     # everything (default)
//	figures -figure 7                # one figure (2,3,6,7,9,10,11,12)
//	figures -table 3                 # one table (1..7)
//	figures -section 6c              # one section report (5f, 5h, 6c)
//	figures -figure 7 -table 3       # several, printed in registry order
//	figures -workloads spec          # 18 SPEC workloads only (default all 34)
//	figures -window 16               # simulated window in ms (default 64)
//	figures -j 8                     # concurrent simulations (0 = all cores)
//
// Timeouts and failures (see DESIGN.md "Failure model: cell isolation
// and cancellation"):
//
//	figures -timeout 10m             # cancel the whole run after a deadline
//
// A failing cell does not abort the run: every figure that doesn't
// depend on it still renders byte-identically, failed figures are listed
// in a summary table, and the exit status is 1.
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
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/cellcache"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	// Indirection so deferred cleanup (profiles, stats lines) runs even
	// when the process exits non-zero for failed cells.
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args, prints the outputs they select to stdout in registry
// order and returns the exit status. Progress, cache statistics and
// errors go to stderr.
func run(args []string, stdout io.Writer) (status int) {
	flags := flag.NewFlagSet("figures", flag.ContinueOnError)
	figure := flags.Int("figure", 0, "regenerate one figure (2,3,6,7,9,10,11,12)")
	table := flags.Int("table", 0, "regenerate one table (1..7)")
	section := flags.String("section", "", `regenerate one section ("5f" sensitivity, "5h" power, "6c" co-run)`)
	all := flags.Bool("all", false, "regenerate everything")
	workloads := flags.String("workloads", "all", `workload set: "all" (34) or "spec" (18)`)
	windowMS := flags.Int("window", 64, "simulated window per run in ms (>= 1)")
	seed := flags.Uint64("seed", 0, "experiment seed (0 = default)")
	par := flags.Int("j", 0, "concurrent simulations (0 = one per core, 1 = serial)")
	timeout := flags.Duration("timeout", 0, "cancel the whole run after this wall-clock duration (0 = none)")
	cacheDir := flags.String("cache-dir", "", "result cache directory: completed cells persist here, so a rerun resumes an interrupted run and warms future ones (empty = no cache)")
	cpuprofile := flags.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flags.String("memprofile", "", "write a pprof heap profile at exit to this file")
	traceFile := flags.String("trace", "", "write a runtime execution trace to this file")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *windowMS < 1 {
		log.Printf("-window %d: must be at least 1 ms", *windowMS)
		return 1
	}
	opts := repro.LabOptions{
		Window:   dram.PS(*windowMS) * dram.Millisecond,
		Seed:     *seed,
		Parallel: *par,
	}
	switch *workloads {
	case "all":
		opts.Workloads = repro.AllWorkloads()
	case "spec":
		opts.Workloads = repro.SPECWorkloads()
	default:
		log.Printf("unknown workload set %q", *workloads)
		return 1
	}
	var named []string
	if *figure != 0 {
		named = append(named, fmt.Sprintf("figure%d", *figure))
	}
	if *table != 0 {
		named = append(named, fmt.Sprintf("table%d", *table))
	}
	if *section != "" {
		named = append(named, "section"+*section)
	}
	*all = *all || len(named) == 0
	var outputs []repro.Renderer
	var names []string
	for _, r := range repro.Renderers() {
		if *all || slices.Contains(named, r.Name) {
			outputs = append(outputs, r)
		}
		names = append(names, r.Name)
	}
	for _, name := range named {
		if !slices.Contains(names, name) {
			log.Printf("no output %s (outputs: %s)", name, strings.Join(names, ", "))
			return 1
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Printf("cpuprofile: %v", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Printf("cpuprofile: %v", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Printf("trace: %v", err)
			return 1
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			log.Printf("trace: %v", err)
			return 1
		}
		defer trace.Stop()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				status = 1
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
				status = 1
			}
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts.Context = ctx
	lab := repro.NewLab(opts)
	defer func() {
		if cs := lab.CellStats(); cs.TraceCaptures > 0 || cs.TraceReplays > 0 {
			fmt.Fprintf(os.Stderr, "[trace tier: %d streams captured, %d replayed, %d bytes held]\n",
				cs.TraceCaptures, cs.TraceReplays, cs.TraceBytes)
		}
	}()
	if *cacheDir != "" {
		store, err := cellcache.New(*cacheDir)
		if err != nil {
			log.Printf("-cache-dir: %v", err)
			return 1
		}
		lab.AttachCache(store)
		defer func() {
			if cs := lab.CellStats(); cs.Requests > 0 {
				fmt.Fprintf(os.Stderr, "[cell cache: %d hits, %d misses, %d deduped, %d simulated]\n",
					cs.CacheHits, cs.CacheMisses, cs.Deduped(), cs.Simulated)
			}
		}()
	}

	cancelled := func(err error) bool {
		return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}

	if *all {
		// Warm the plain cells once up front so the worker pool sees the
		// whole grid at full width, instead of draining per figure. A
		// failing cell is not fatal here: the outputs that depend on it
		// will report it, and every other output still renders.
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

	var failures []failure
	for _, r := range outputs {
		start := time.Now()
		out, err := r.Fn(lab)
		if err != nil {
			if cancelled(err) {
				log.Printf("%s: %v", r.Name, err)
				return 1
			}
			// Emit the partial run: the failed output is skipped, every
			// other output still renders from the healthy cells.
			failures = append(failures, failure{r.Name, err})
			fmt.Fprintf(os.Stderr, "[%s FAILED: %v]\n\n", r.Name, err)
			continue
		}
		fmt.Fprintln(stdout, out)
		if d := time.Since(start); d > time.Second {
			fmt.Fprintf(os.Stderr, "[%s regenerated in %s]\n\n", r.Name, d.Round(time.Millisecond))
		}
	}
	return reportFailures(stdout, failures, len(outputs)-len(failures))
}

// failure is one selected output lost to an error.
type failure struct {
	name string
	err  error
}

// reportFailures writes the summary table of outputs lost to failed
// cells to w and returns the exit status: 1 when any output failed, 0
// otherwise. A *sim.CellError's row names the cell by its label and the
// cell's own cause; any other error's row shows "-" as its cell.
func reportFailures(w io.Writer, failures []failure, ran int) int {
	if len(failures) == 0 {
		return 0
	}
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
	fmt.Fprintln(w, t.String())
	log.Printf("%d of %d selected outputs failed", len(failures), ran+len(failures))
	return 1
}
