// Command tracedump records, inspects, and replays memory request traces
// (the reproducible-artifact format of internal/trace).
//
// Usage:
//
//	tracedump record -workload gcc -n 100000 -o gcc.trace   # synthesize + save
//	tracedump record -attack double-sided -o atk.trace      # attack pattern
//	tracedump info gcc.trace                                # header + stats
//	tracedump dump gcc.trace | head                         # text format
//	tracedump replay gcc.trace -scheme aqua-memmapped       # run through a scheme
//	tracedump convert -to text -o gcc.txt gcc.trace         # text <-> v1 conversion
//	tracedump stats gcc.trace                               # record statistics
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracedump: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: tracedump record|info|dump|replay|convert|stats ...")
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "dump":
		dump(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "convert":
		if err := runConvert(os.Args[2:], os.Stdout); err != nil {
			log.Fatal(err)
		}
	case "stats":
		if err := runStats(os.Args[2:], os.Stdout); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown subcommand %q", os.Args[1])
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

func open(path string) *trace.Reader {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	r, err := trace.NewReader(f)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func info(args []string) {
	if len(args) < 1 {
		log.Fatal("info: need a trace file")
	}
	r := open(args[0])
	fmt.Printf("records: %d\n", r.Header().Records)
	geom := repro.BaselineGeometry()
	rows := make(map[dram.Row]int64)
	banks := make(map[int]int64)
	var writes, instr int64
	for {
		rec, err := r.Read()
		if err != nil {
			break
		}
		rows[rec.Row]++
		if geom.Contains(rec.Row) {
			banks[geom.BankOf(rec.Row)]++
		}
		if rec.Write {
			writes++
		}
		instr += rec.GapInstr
	}
	if r.Err() != nil {
		log.Fatal(r.Err())
	}
	var hottest dram.Row
	var hot int64
	for row, n := range rows {
		if n > hot || (n == hot && row < hottest) {
			hottest, hot = row, n
		}
	}
	fmt.Printf("distinct rows: %d\n", len(rows))
	fmt.Printf("banks touched: %d\n", len(banks))
	fmt.Printf("writes: %d\n", writes)
	fmt.Printf("instructions: %d\n", instr)
	fmt.Printf("hottest row: %d (%d accesses)\n", hottest, hot)
}

func dump(args []string) {
	if len(args) < 1 {
		log.Fatal("dump: need a trace file")
	}
	r := open(args[0])
	var recs []trace.Record
	for {
		rec, err := r.Read()
		if err != nil {
			break
		}
		recs = append(recs, rec)
	}
	if r.Err() != nil {
		log.Fatal(r.Err())
	}
	if err := trace.WriteText(os.Stdout, recs); err != nil {
		log.Fatal(err)
	}
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	scheme := fs.String("scheme", "aqua-memmapped", "mitigation scheme")
	trh := fs.Int64("trh", 1000, "Rowhammer threshold")
	fs.Parse(args)
	if fs.NArg() < 1 {
		log.Fatal("replay: need a trace file")
	}
	r := open(fs.Arg(0))

	rank := repro.NewBaselineRank()
	var mit mitigation.Mitigator
	switch *scheme {
	case "baseline":
		mit = mitigation.None{}
	case "aqua-sram":
		mit = repro.NewAqua(rank, repro.AquaConfig{TRH: *trh, Mode: repro.ModeSRAM})
	case "aqua-memmapped":
		mit = repro.NewAqua(rank, repro.AquaConfig{TRH: *trh, Mode: repro.ModeMemMapped})
	case "rrs":
		mit = repro.NewRRS(rank, repro.RRSConfig{TRH: *trh})
	default:
		log.Fatalf("unknown scheme %q", *scheme)
	}
	mon := repro.NewSecurityMonitor(rank, int(*trh))
	ctrl := memctrl.New(rank, mit, memctrl.Config{})
	c := cpu.New(0, r, cpu.Config{})
	for {
		at, ok := c.NextIssueTime()
		if !ok {
			break
		}
		c.Issue(at, ctrl.Submit)
	}
	if r.Err() != nil {
		log.Fatal(r.Err())
	}
	st := mit.Stats()
	fmt.Printf("scheme          %s\n", mit.Name())
	fmt.Printf("simulated time  %.3f ms\n", float64(c.FinishTime())/1e9)
	fmt.Printf("instructions    %d\n", c.InstrRetired())
	fmt.Printf("IPC             %.3f\n", c.IPC(c.FinishTime()))
	fmt.Printf("mitigations     %d (migrations %d)\n", st.Mitigations, st.RowMigrations)
	if mon.Violated() {
		v := mon.Violations()[0]
		fmt.Printf("VIOLATED        row %d reached %d ACTs\n", v.Row, v.Count)
	} else {
		fmt.Printf("invariant held\n")
	}
}
