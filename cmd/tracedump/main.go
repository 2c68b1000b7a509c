// Command tracedump records, inspects, and replays memory request traces:
// trace.Packed's columns in their file form, the reproducible-artifact
// format of internal/trace.
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
	"bytes"
	"errors"
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
		err = runRecord(args, os.Stdout)
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

// runRecord packs at most -n records of a workload or attack stream and
// writes them to the -o file.
func runRecord(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload name to synthesize")
	atk := fs.String("attack", "", "attack pattern (single-sided, double-sided, adaptive, dos)")
	n := fs.Int64("n", 100_000, "records to capture")
	core := fs.Int("core", 0, "core index (rate-copy hot-row placement)")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("o", "", "output file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("record: -o is required")
	}
	if *n < 0 {
		return fmt.Errorf("record: -n %d is negative", *n)
	}
	stream, err := recordStream(*wl, *atk, *n, *core, *seed)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	p := trace.PackStream(stream, *n)
	var file bytes.Buffer
	p.WriteTo(&file)
	if err := os.WriteFile(*out, file.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d records to %s\n", p.Len(), *out)
	return nil
}

// recordStream builds the stream record captures: workload wl's
// generator for core, or attack pattern atk, sized for n records.
func recordStream(wl, atk string, n int64, core int, seed uint64) (cpu.Stream, error) {
	region := sim.VisibleRegion(sim.Config{})
	geom := region.Geom
	switch {
	case wl != "" && atk != "":
		return nil, errors.New("-workload and -attack are mutually exclusive")
	case wl != "":
		spec, ok := workload.ByName(wl)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", wl)
		}
		return workload.NewGenerator(spec, region, core, seed, workload.Params{}).Stream(n, seed), nil
	case atk == "single-sided":
		return attack.SingleSided(geom, geom.RowOf(0, 777), region.VisibleRowsPerBank, n/2), nil
	case atk == "double-sided":
		return attack.DoubleSided(geom, geom.RowOf(3, 5000), n/2), nil
	case atk == "adaptive":
		return attack.AdaptiveHammer(geom, geom.RowOf(0, 42), region.VisibleRowsPerBank, n/17), nil
	case atk == "dos":
		return attack.NewRotatingDoS(geom, region.VisibleRowsPerBank, 500, n), nil
	case atk != "":
		return nil, fmt.Errorf("unknown attack %q", atk)
	}
	return nil, errors.New("need -workload or -attack")
}

// readTrace reads a whole trace file. Any error, a truncated file
// included, fails the read, so no subcommand acts on a partial trace.
func readTrace(path string) (*trace.Packed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := trace.ReadPacked(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
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
	p, err := readTrace(path)
	if err != nil {
		return err
	}
	geom := dram.Baseline()
	var writes, instr int64
	rows := make(map[dram.Row]int64)
	banks := make(map[int]bool)
	s := p.Stream()
	for req, ok := s.Next(); ok; req, ok = s.Next() {
		if req.Write {
			writes++
		}
		instr += req.GapInstr
		rows[req.Row]++
		if geom.Contains(req.Row) {
			banks[geom.BankOf(req.Row)] = true
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
	if p.Len() > 0 {
		perRec = fmt.Sprintf("%.2f B/record", float64(st.Size())/float64(p.Len()))
		hottest = fmt.Sprintf("%d (%d accesses)", hotRow, hot)
	}
	fmt.Fprintf(stdout, "records       %d\n", p.Len())
	fmt.Fprintf(stdout, "file bytes    %d (%s)\n", st.Size(), perRec)
	fmt.Fprintf(stdout, "writes        %d\n", writes)
	fmt.Fprintf(stdout, "instructions  %d\n", instr)
	fmt.Fprintf(stdout, "distinct rows %d\n", len(rows))
	fmt.Fprintf(stdout, "banks touched %d\n", len(banks))
	fmt.Fprintf(stdout, "hottest row   %s\n", hottest)
	return nil
}

// runDump prints a trace one "R|W <row> <gap>" text line per record.
// Nothing parses that text back.
func runDump(args []string, stdout io.Writer) error {
	path, err := traceArg(flag.NewFlagSet("dump", flag.ContinueOnError), args)
	if err != nil {
		return err
	}
	p, err := readTrace(path)
	if err != nil {
		return err
	}
	var text bytes.Buffer
	s := p.Stream()
	for req, ok := s.Next(); ok; req, ok = s.Next() {
		op := "R"
		if req.Write {
			op = "W"
		}
		fmt.Fprintf(&text, "%s %d %d\n", op, req.Row, req.GapInstr)
	}
	_, err = text.WriteTo(stdout)
	return err
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
	p, err := readTrace(path)
	if err != nil {
		return err
	}
	region := sim.VisibleRegion(sim.Config{})
	s := p.Stream()
	for i := 0; ; i++ {
		req, ok := s.Next()
		if !ok {
			break
		}
		if !region.Geom.Contains(req.Row) || region.Geom.IndexOf(req.Row) >= region.VisibleRowsPerBank {
			return fmt.Errorf("replay: record %d: row %d is outside the simulated region (%d banks x %d visible rows)",
				i, req.Row, region.Geom.Banks, region.VisibleRowsPerBank)
		}
	}

	sys, err := sim.NewSystemE(sim.Config{Scheme: sch, TRH: *trh, Cores: 1, Monitor: true},
		[]cpu.Stream{p.Stream()})
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
