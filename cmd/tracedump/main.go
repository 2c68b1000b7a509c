// Command tracedump records, inspects, and replays memory request traces
// in aqua-trace-v1, the reproducible-artifact format of internal/trace.
//
// Usage:
//
//	tracedump record -workload gcc -n 100000 -o gcc.trace   # synthesize + save
//	tracedump record -attack double-sided -o atk.trace      # attack pattern
//	tracedump stats gcc.trace                               # header + record statistics
//	tracedump dump gcc.trace | head                         # one "R|W row gap" line per record
//	tracedump replay -scheme aqua-memmapped gcc.trace       # run through a scheme
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracedump: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: tracedump record|stats|dump|replay ...")
	}
	var err error
	switch args := os.Args[2:]; os.Args[1] {
	case "record":
		record(args)
	case "stats":
		err = runStats(args, os.Stdout)
	case "dump":
		err = runDump(args, os.Stdout)
	case "replay":
		err = runReplay(args, os.Stdout)
	default:
		log.Fatalf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		log.Fatal(err)
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wl := fs.String("workload", "", "workload name to synthesize")
	atk := fs.String("attack", "", "attack pattern (single-sided, double-sided, adaptive, dos)")
	n := fs.Int64("n", 100_000, "records to capture")
	core := fs.Int("core", 0, "core index (rate-copy hot-row placement)")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		log.Fatal("record: -o is required")
	}

	region := sim.VisibleRegion(sim.Config{})
	geom := region.Geom
	var stream cpu.Stream
	switch {
	case *wl != "" && *atk != "":
		log.Fatal("record: -workload and -attack are mutually exclusive")
	case *wl != "":
		spec, ok := workload.ByName(*wl)
		if !ok {
			log.Fatalf("unknown workload %q", *wl)
		}
		gen := workload.NewGenerator(spec, region, *core, *seed, workload.Params{})
		stream = gen.Stream(*n, *seed)
	case *atk != "":
		switch *atk {
		case "single-sided":
			stream = attack.SingleSided(geom, geom.RowOf(0, 777), region.VisibleRowsPerBank, *n/2)
		case "double-sided":
			stream = attack.DoubleSided(geom, geom.RowOf(3, 5000), *n/2)
		case "adaptive":
			stream = attack.AdaptiveHammer(geom, geom.RowOf(0, 42), region.VisibleRowsPerBank, *n/17)
		case "dos":
			stream = attack.NewRotatingDoS(geom, region.VisibleRowsPerBank, 500, *n)
		default:
			log.Fatalf("unknown attack %q", *atk)
		}
	default:
		log.Fatal("record: need -workload or -attack")
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	written, err := trace.Capture(f, stream, *n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d records to %s\n", written, *out)
}

// readTrace decodes every record of a trace file. Any decode error, a
// truncated body included, fails the whole read, so no subcommand acts on
// a partial trace.
func readTrace(path string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var recs []trace.Record
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: record %d: %w", path, len(recs), err)
		}
		recs = append(recs, rec)
	}
}

// traceArg parses a subcommand that takes flags and exactly one trace
// file, returning the file's path.
func traceArg(fs *flag.FlagSet, args []string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if fs.NArg() != 1 {
		return "", fmt.Errorf("%s: need exactly one trace file, after any flags", fs.Name())
	}
	return fs.Arg(0), nil
}

// runStats prints a trace's size and record statistics.
func runStats(args []string, stdout io.Writer) error {
	path, err := traceArg(flag.NewFlagSet("stats", flag.ContinueOnError), args)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	recs, err := readTrace(path)
	if err != nil {
		return err
	}
	geom := dram.Baseline()
	var writes, instr int64
	rows := make(map[dram.Row]int64)
	banks := make(map[int]bool)
	for _, rec := range recs {
		if rec.Write {
			writes++
		}
		instr += rec.GapInstr
		rows[rec.Row]++
		if geom.Contains(rec.Row) {
			banks[geom.BankOf(rec.Row)] = true
		}
	}
	var hotRow dram.Row
	var hot int64
	for row, n := range rows {
		if n > hot || (n == hot && row < hotRow) {
			hotRow, hot = row, n
		}
	}
	perRec, hottest := "-", "-"
	if len(recs) > 0 {
		perRec = fmt.Sprintf("%.2f B/record", float64(st.Size())/float64(len(recs)))
		hottest = fmt.Sprintf("%d (%d accesses)", hotRow, hot)
	}
	fmt.Fprintf(stdout, "records       %d\n", len(recs))
	fmt.Fprintf(stdout, "file bytes    %d (%s)\n", st.Size(), perRec)
	fmt.Fprintf(stdout, "writes        %d\n", writes)
	fmt.Fprintf(stdout, "instructions  %d\n", instr)
	fmt.Fprintf(stdout, "distinct rows %d\n", len(rows))
	fmt.Fprintf(stdout, "banks touched %d\n", len(banks))
	fmt.Fprintf(stdout, "hottest row   %s\n", hottest)
	return nil
}

// runDump prints a trace one text line per record (trace.WriteText).
func runDump(args []string, stdout io.Writer) error {
	path, err := traceArg(flag.NewFlagSet("dump", flag.ContinueOnError), args)
	if err != nil {
		return err
	}
	recs, err := readTrace(path)
	if err != nil {
		return err
	}
	return trace.WriteText(stdout, recs)
}

// runReplay runs a trace as one core of a full system under a scheme and
// prints the outcome. Every row must lie in the region the simulator
// addresses (sim.VisibleRegion); a trace with any other row is rejected
// before anything runs.
func runReplay(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	scheme := fs.String("scheme", "aqua-memmapped", "mitigation scheme: baseline, aqua-sram, aqua-memmapped, rrs, blockhammer, victim-refresh")
	trh := fs.Int64("trh", 1000, "Rowhammer threshold (>= 2; AQUA >= 4, RRS >= 42)")
	path, err := traceArg(fs, args)
	if err != nil {
		return err
	}
	sch, err := sim.ParseScheme(*scheme)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if err := sim.CheckTRH(sch, *trh); err != nil {
		return fmt.Errorf("replay: -trh: %w", err)
	}
	recs, err := readTrace(path)
	if err != nil {
		return err
	}
	region := sim.VisibleRegion(sim.Config{})
	for i, rec := range recs {
		if !region.Geom.Contains(rec.Row) || region.Geom.IndexOf(rec.Row) >= region.VisibleRowsPerBank {
			return fmt.Errorf("replay: record %d: row %d is outside the simulated region (%d banks x %d visible rows)",
				i, rec.Row, region.Geom.Banks, region.VisibleRowsPerBank)
		}
	}

	sys, err := sim.NewSystemE(sim.Config{Scheme: sch, TRH: *trh, Cores: 1, Monitor: true},
		[]cpu.Stream{trace.NewSliceStream(recs)})
	if err != nil {
		return err
	}
	res := sys.Run(0)
	fmt.Fprintf(stdout, "scheme          %s\n", sys.Mit.Name())
	fmt.Fprintf(stdout, "simulated time  %.3f ms\n", float64(res.SimTime)/1e9)
	fmt.Fprintf(stdout, "instructions    %d\n", res.Instr)
	fmt.Fprintf(stdout, "IPC             %.3f\n", res.IPC)
	fmt.Fprintf(stdout, "mitigations     %d (migrations %d)\n", res.MitStats.Mitigations, res.MitStats.RowMigrations)
	if mon := sys.Monitor; mon.Violated() {
		v := mon.Violations()[0]
		fmt.Fprintf(stdout, "VIOLATED        row %d reached %d ACTs\n", v.Row, v.Count)
	} else {
		fmt.Fprintf(stdout, "invariant held\n")
	}
	return nil
}
