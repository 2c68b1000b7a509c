// Package perf is the measurement layer for the simulator's single-thread
// hot path: per-layer microbenchmarks over the request pipeline
// (cpu.Core.Issue -> memctrl.Submit -> mitigation.Translate ->
// dram.Rank.Access -> tracker.RecordACT) plus the zero-allocation budget
// the steady-state path must hold.
//
// The benchmark bodies are exported as ordinary functions taking
// *testing.B so two callers can share them: the package's own
// Benchmark wrappers (run in CI with -benchtime=1x as a smoke test, and
// by hand when optimizing), and aquabench, the repository benchmark
// (bench/aquabench), which runs them through testing.Benchmark and
// reports their ns/op as its perf.* per-layer metrics.
//
// Every benchmark builds the paper's baseline configuration (16 banks x
// 128K rows, DDR4-2400, AQUA memory-mapped at T_RH=1K) so the numbers
// track what figure regeneration actually executes.
package perf

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/event"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracker"
	"repro/internal/workload"
)

// sinkRow keeps replayed rows observably live so the replay micro cannot
// be dead-code-eliminated around an inlined Next.
var sinkRow dram.Row

// reqSpread is the number of distinct rows the drivers cycle through:
// large enough to exercise row misses and tracker installs, small enough
// that per-row counts stay far below the mitigation threshold within a
// benchmark run's horizon.
const reqSpread = 4096

// batchSpread is the row spread for the batched driver. A 64-deep closed
// loop keeps every bank busy, so it sustains roughly banks× the
// activation rate of the serial driver per unit of simulated time; the
// spread must widen by the same factor to keep per-row activation counts
// below T_RH/2 within a refresh window, or the benchmark measures
// quarantine churn instead of steady-state submit cost.
const batchSpread = reqSpread * 64

// rowPattern returns the i-th row of the driver pattern: a stride walk
// that changes bank every request (worst case for row-buffer locality,
// the dominant shape of tracker-relevant traffic).
func rowPattern(geom dram.Geometry, i int) dram.Row {
	return rowPatternSpread(geom, i, reqSpread)
}

// rowPatternSpread is rowPattern over an explicit row spread.
func rowPatternSpread(geom dram.Geometry, i, spread int) dram.Row {
	n := i % spread
	bank := n % geom.Banks
	idx := (n / geom.Banks) * 3
	return geom.RowOf(bank, idx)
}

// BenchAccess measures the bare DRAM layer: one line access per op
// against the bank state machines, no controller or mitigation above it.
func BenchAccess(b *testing.B) {
	rank := dram.NewRank(dram.Baseline(), dram.DDR4())
	geom := rank.Geometry()
	b.ReportAllocs()
	b.ResetTimer()
	at := dram.PS(0)
	for i := 0; i < b.N; i++ {
		done, _ := rank.Access(rowPattern(geom, i), i%3 == 0, at)
		at = done
	}
}

// newSystem builds the benchmark system: AQUA memory-mapped at T_RH=1K
// over the baseline rank, one core. The stream is a placeholder; drivers
// that bypass the core feed the controller directly.
func newSystem() *sim.System {
	cfg := sim.Config{
		Scheme: sim.SchemeAquaMemMapped,
		TRH:    1000,
		Cores:  1,
	}
	return sim.NewSystem(cfg, []cpu.Stream{&SyntheticStream{}})
}

// BenchSubmit measures the full per-request pipeline through the memory
// controller: background-event scan, FPT translate, DRAM access, tracker
// update.
func BenchSubmit(b *testing.B) {
	sys := newSystem()
	geom := sys.Rank.Geometry()
	b.ReportAllocs()
	b.ResetTimer()
	at := dram.PS(0)
	for i := 0; i < b.N; i++ {
		done := sys.Ctrl.Submit(rowPattern(geom, i), i%3 == 0, at)
		if done > at {
			at = done
		}
	}
}

// BenchSubmitBatch measures the batched submit path: 64-wide runs of
// requests that share one background-event bounds check (64 matches the
// issue loop's drain quantum, the width figure regeneration submits at).
//
// Arrivals are self-paced: slot j of each batch arrives when slot j of
// the previous batch completed (clamped monotonic, as SubmitBatch
// requires), modeling a closed loop with 64 outstanding requests. Giving
// a whole batch one shared arrival instant instead compresses simulated
// time by the controller's bank-level overlap factor, which pushes
// per-window activation rates over T_RH/2 and drags quarantine
// migrations and in-DRAM FPT walks into the measurement; batchSpread
// keeps the paced loop's higher — but genuine — activation rate below
// threshold.
//
// This benchmark legitimately costs ~4x ctrl_submit per request, and the
// gap is the tracker, not accounting: a 64-deep closed loop keeps all 16
// banks busy, sustaining ~16x the serial driver's activation rate, and
// the Misra-Gries tracker is provisioned (ProvisionEntries) precisely so
// no working set can be simultaneously resident in its per-bank tables
// and below T_RH/2 per refresh window at that rate. Spread the rows
// wider and nearly every ACT takes the install/evict path (the
// tracker_act_cold micro); spread them tighter and rows cross the
// threshold and quarantine. ctrl_submit measures the latency-mode
// pipeline (tracker-hot, serial pacing); this measures the
// throughput-mode pipeline, where tracker churn is the true per-request
// cost of keeping every bank busy.
func BenchSubmitBatch(b *testing.B) {
	sys := newSystem()
	geom := sys.Rank.Geometry()
	const batch = 64
	reqs := make([]memctrl.Request, 0, batch)
	done := make([]dram.PS, 0, batch)
	prev := make([]dram.PS, batch)
	b.ReportAllocs()
	b.ResetTimer()
	at := dram.PS(0)
	for i := 0; i < b.N; i += batch {
		reqs = reqs[:0]
		n := batch
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			if prev[j] > at {
				at = prev[j]
			}
			reqs = append(reqs, memctrl.Request{Row: rowPatternSpread(geom, i+j, batchSpread), Write: (i+j)%3 == 0, At: at})
		}
		done = sys.Ctrl.SubmitBatch(reqs, done[:0])
		copy(prev, done)
	}
}

// BenchTrackerACT measures the aggressor tracker alone: one RecordACT
// per op on the provisioned Misra-Gries table.
func BenchTrackerACT(b *testing.B) {
	geom := dram.Baseline()
	timing := dram.DDR4()
	tr := tracker.NewMisraGries(geom, 500, tracker.ProvisionEntries(timing, 500))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RecordACT(rowPattern(geom, i))
	}
}

// BenchTranslate measures the AQUA engine's address translation alone —
// the per-request FPT lookup the mitigation charges on the critical
// path. The driver pattern is ordinary (never-quarantined) rows, so this
// tracks the flattened fast path: one bitmap probe per op in the common
// "not quarantined, not remapped" case the full-window profile is
// dominated by.
func BenchTranslate(b *testing.B) {
	sys := newSystem()
	geom := sys.Rank.Geometry()
	mit := sys.Mit
	b.ReportAllocs()
	b.ResetTimer()
	at := dram.PS(0)
	for i := 0; i < b.N; i++ {
		tr := mit.Translate(rowPattern(geom, i), at)
		at += tr.Latency
	}
}

// BenchTrackerACTHot measures the tracker's already-tracked fast path:
// every op hits a row with a live Misra-Gries entry, so the cost is one
// row-map probe, increment, and divide-free threshold test.
func BenchTrackerACTHot(b *testing.B) {
	geom := dram.Baseline()
	timing := dram.DDR4()
	tr := tracker.NewMisraGries(geom, 500, tracker.ProvisionEntries(timing, 500))
	// Install one row per bank; the measured loop cycles over exactly
	// these, so every RecordACT takes the tracked-row path.
	for bank := 0; bank < geom.Banks; bank++ {
		tr.RecordACT(geom.RowOf(bank, 0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RecordACT(geom.RowOf(i%geom.Banks, 0))
	}
}

// BenchTrackerACTCold measures the tracker's untracked slow path: a wide
// stride keeps almost every op on a row with no live entry, so the cost
// is the install path — free-slot claim early on, then the spill pump
// and lazy-heap eviction check once the per-bank tables fill.
func BenchTrackerACTCold(b *testing.B) {
	geom := dram.Baseline()
	timing := dram.DDR4()
	tr := tracker.NewMisraGries(geom, 500, tracker.ProvisionEntries(timing, 500))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Walk every bank, striding far enough that a row repeats only
		// after rowsPerBank/1021 * banks ops — long past eviction.
		tr.RecordACT(geom.RowOf(i%geom.Banks, (i*1021)%geom.RowsPerBank))
	}
}

// BenchGeneratorStream measures workload synthesis: one stream.Next per
// op on a high-MPKI SPEC workload.
func BenchGeneratorStream(b *testing.B) {
	spec, ok := workload.ByName("gcc")
	if !ok {
		b.Fatal("gcc spec missing")
	}
	region := workload.Region{Geom: dram.Baseline()}
	gen := workload.NewGenerator(spec, region, 0, 0x41515541, workload.Params{})
	s := gen.Stream(int64(b.N)+1, 0x41515541)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			b.Fatal("stream exhausted early")
		}
	}
}

// traceReplayRecords sizes the packed capture BenchTraceReplay cycles
// over: big enough that cursor resets are noise, small enough (~4 MiB
// packed) to build instantly.
const traceReplayRecords = 1 << 20

// BenchTraceReplay measures the capture/replay tier's replay path: one
// PackedStream.Next per op over a captured gcc stream. This is the
// per-record cost every grid cell after a workload's first touch pays in
// place of BenchGeneratorStream's synthesis cost, so the gap between the
// two numbers is the per-record win of record-once/replay-many.
func BenchTraceReplay(b *testing.B) {
	spec, ok := workload.ByName("gcc")
	if !ok {
		b.Fatal("gcc spec missing")
	}
	region := workload.Region{Geom: dram.Baseline()}
	gen := workload.NewGenerator(spec, region, 0, 0x41515541, workload.Params{})
	p := trace.PackStream(gen.Stream(traceReplayRecords, 0x41515541), traceReplayRecords)
	if p.Len() != traceReplayRecords {
		b.Fatalf("packed %d records, want %d", p.Len(), traceReplayRecords)
	}
	s := p.Stream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, ok := s.Next()
		if !ok {
			// Wrap to a fresh cursor; one allocation per 2^20 ops rounds
			// to zero allocs/op.
			s = p.Stream()
			req, ok = s.Next()
			if !ok {
				b.Fatal("packed stream empty after reset")
			}
		}
		sinkRow = req.Row
	}
}

// benchIssueLoop measures the full issue-selection loop — heap-ordered
// core selection plus the request pipeline — at a given core count. The
// selection cost is what scales with cores: the min-heap pays O(log
// cores) per request where the previous linear scan paid O(cores), so
// the 8- and 16-core variants are where the difference shows.
func benchIssueLoop(b *testing.B, cores int) {
	streams := make([]cpu.Stream, cores)
	for i := range streams {
		streams[i] = NewSyntheticStream(dram.Baseline())
	}
	sys := sim.NewSystem(sim.Config{
		Scheme: sim.SchemeAquaMemMapped,
		TRH:    1000,
		Cores:  cores,
	}, streams)
	b.ReportAllocs()
	b.ResetTimer()
	if got := sys.IssueN(b.N); got != b.N {
		b.Fatalf("issued %d of %d requests", got, b.N)
	}
}

// BenchEventPop measures the calendar primitive the run loop leans on:
// one pop + re-push cycle against a 16-entry indexed heap with two armed
// far-future lanes — the shape of a 16-core system between background
// events. This is aquabench's perf.event_pop_ns micro; its alloc count
// must stay at zero.
func BenchEventPop(b *testing.B) {
	var c event.Calendar
	const entries = 16
	for i := int32(0); i < entries; i++ {
		c.Push(event.Event{Time: event.PS(1000 + i), Class: event.ClassCoreIssue, Index: i})
	}
	c.SetLane(event.ClassRefresh, 1<<40)
	c.SetLane(event.ClassEpoch, 1<<41)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, ok := c.MinIndexed()
		if !ok {
			b.Fatal("heap drained")
		}
		c.ReplaceIndexedMin(e.Time + 7919)
	}
}

// BenchIssueLoop4 measures the issue loop at the paper's 4-core
// configuration.
func BenchIssueLoop4(b *testing.B) { benchIssueLoop(b, 4) }

// BenchIssueLoop8 measures the issue loop at 8 cores.
func BenchIssueLoop8(b *testing.B) { benchIssueLoop(b, 8) }

// BenchIssueLoop16 measures the issue loop at 16 cores.
func BenchIssueLoop16(b *testing.B) { benchIssueLoop(b, 16) }

// SyntheticStream is an endless allocation-free request stream over the
// driver row pattern; the zero-allocation budget test drives the full
// core -> controller pipeline with it.
type SyntheticStream struct {
	geom dram.Geometry
	i    int
}

// NewSyntheticStream builds a stream over the given geometry.
func NewSyntheticStream(geom dram.Geometry) *SyntheticStream {
	return &SyntheticStream{geom: geom}
}

// Next implements cpu.Stream.
func (s *SyntheticStream) Next() (cpu.Request, bool) {
	if s.geom == (dram.Geometry{}) {
		s.geom = dram.Baseline()
	}
	r := cpu.Request{Row: rowPattern(s.geom, s.i), Write: s.i%3 == 0, GapInstr: 200}
	s.i++
	return r, true
}
