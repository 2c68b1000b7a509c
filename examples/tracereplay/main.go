// Trace record & replay: capture a workload's memory request stream into
// the compact binary trace format, then replay the identical stream
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

	// 1. Record: synthesize 200K requests of gcc and capture them.
	spec, _ := workload.ByName("gcc")
	region := sim.VisibleRegion(sim.Config{})
	gen := workload.NewGenerator(spec, region, 0, 42, workload.Params{})

	var buf bytes.Buffer
	n, err := trace.Capture(&buf, gen.Stream(200_000, 42), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d requests (%d bytes, %.1f bytes/request)\n\n",
		n, buf.Len(), float64(buf.Len())/float64(n))

	// 2. Replay the identical stream through two configurations, each on
	// one core of a full system.
	replay := func(name string, scheme sim.Scheme) {
		r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			log.Fatal(err)
		}
		sys := sim.NewSystem(sim.Config{Scheme: scheme, TRH: 1000, Cores: 1}, []cpu.Stream{r})
		res := sys.Run(0)
		if r.Err() != nil {
			log.Fatal(r.Err())
		}
		fmt.Printf("%-10s IPC=%.3f time=%.2fms mitigations=%d migrations=%d\n",
			name, res.IPC, float64(res.SimTime)/1e9,
			res.MitStats.Mitigations, res.MitStats.RowMigrations)
	}
	replay("baseline", sim.SchemeBaseline)
	replay("aqua", sim.SchemeAquaSRAM)

	fmt.Println("\nThe same bits drive both runs — any difference is the mitigation.")
	fmt.Println("Use `go run ./cmd/tracedump` to record/inspect/replay traces on disk.")
}
