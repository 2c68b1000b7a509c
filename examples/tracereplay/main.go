// Trace record & replay: pack a workload's memory request stream into
// the trace file format, read it back, then replay the identical stream
// through two mitigation configurations — the reproducible-artifact
// workflow (the role gem5 checkpoints play for the paper's artifact).
//
//	go run ./examples/tracereplay
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. Record: synthesize 200K requests of gcc, pack them and write
	// the trace file's bytes.
	spec, _ := workload.ByName("gcc")
	region := sim.VisibleRegion(sim.Config{})
	gen := workload.NewGenerator(spec, region, 0, 42, workload.Params{})

	var buf bytes.Buffer
	trace.PackStream(gen.Stream(200_000, 42), 200_000).WriteTo(&buf)
	size := buf.Len()
	p, err := trace.ReadPacked(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d requests (%d bytes, %.1f bytes/request)\n\n",
		p.Len(), size, float64(size)/float64(p.Len()))

	// 2. Replay the identical stream, read back from those bytes, through
	// two configurations, each on one core of a full system.
	replay := func(name string, scheme sim.Scheme) {
		sys := sim.NewSystem(sim.Config{Scheme: scheme, TRH: 1000, Cores: 1}, []cpu.Stream{p.Stream()})
		res := sys.Run(0)
		fmt.Printf("%-10s IPC=%.3f time=%.2fms mitigations=%d migrations=%d\n",
			name, res.IPC, float64(res.SimTime)/1e9,
			res.MitStats.Mitigations, res.MitStats.RowMigrations)
	}
	replay("baseline", sim.SchemeBaseline)
	replay("aqua", sim.SchemeAquaSRAM)

	fmt.Println("\nThe same bits drive both runs — any difference is the mitigation.")
	fmt.Println("Use `go run ./cmd/tracedump` to record/inspect/replay traces on disk.")
}
