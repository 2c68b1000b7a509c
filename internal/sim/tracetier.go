package sim

// Record-once/replay-many workload streams (see DESIGN.md "Trace capture
// & replay"). A workload core-stream is a pure function of (spec, core,
// nominal IPC, request budget) under the Runner's fixed region and seed —
// it carries addresses and instruction gaps, never timestamps — so one
// capture serves every cell sharing the workload regardless of scheme,
// threshold or variant. The first cell to touch a stream runs the generator once
// and packs the records; every cell (including that first one) then
// replays the packed trace, which is several times cheaper per record
// than generation and byte-identical to it (pinned against the generator
// by TestTraceReplayMatchesGeneration, and by the golden tests).
//
// The tier lives in memory under a byte budget. A capture that would
// exceed it is served once, uncached, and later cells capture again.

import (
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceBudgetBytes bounds the in-memory packed tier. The full 34-workload
// 64 ms grid holds 555,585,796 B after every workload's calibration and
// baseline pass at the default seed, about half this 1 GiB bound
// (DESIGN.md "Trace capture & replay" has the measurement).
const traceBudgetBytes = 1 << 30

// replayStream serves one core's stream from the trace tier, capturing
// it first if the tier does not hold it yet.
func (r *Runner) replayStream(spec workload.Spec, core int, nominal float64, reqs int64) cpu.Stream {
	key := streamKey{spec: spec.Name, core: core, nominal: nominal, reqs: reqs}
	r.mu.Lock()
	if p, ok := r.traceMem[key]; ok {
		r.cellStats.TraceReplays++
		r.mu.Unlock()
		return p.Stream()
	}
	r.mu.Unlock()

	// Capture: build the generator, pack its stream and drop it; only the
	// packed records outlive the capture.
	params := workload.Params{
		EpochLength: dram.DDR4().TREFW,
		NominalIPC:  nominal,
		Cores:       paperCores,
	}
	gen := workload.NewGenerator(spec, r.region, core, r.cfg.Seed, params)
	p := trace.PackStream(gen.Stream(reqs, r.cfg.Seed+uint64(core)*7919), reqs)

	r.mu.Lock()
	defer r.mu.Unlock()
	if prior, ok := r.traceMem[key]; ok {
		// Lost the capture race; replay the winner (identical by
		// construction).
		r.cellStats.TraceReplays++
		return prior.Stream()
	}
	r.cellStats.TraceCaptures++
	if r.traceBytes+p.Bytes() <= r.traceBudget {
		r.traceMem[key] = p
		r.traceBytes += p.Bytes()
	}
	return p.Stream()
}
