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

// rowPattern returns the i-th row of the driver pattern: a stride walk
// that changes bank every request (worst case for row-buffer locality,
// the dominant shape of tracker-relevant traffic).
func rowPattern(geom dram.Geometry, i int) dram.Row {
	n := i % reqSpread
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
		done := rank.Access(rowPattern(geom, i), i%3 == 0, at)
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

// BenchTrackerACT measures the aggressor tracker alone: one RecordACT
// per op on a Misra-Gries tracker with the paper's table size. Its bank
// tables grow to hold rowPattern's reqSpread rows in the first reqSpread
// ops and stay that size.
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
// path. The driver pattern is ordinary (never-quarantined) rows under
// memory-mapped tables, so each op is the common case a full-window cell
// is dominated by: a test that the row lies below the reserved strip,
// then one bloom-filter bit probe that answers "not quarantined".
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

// benchIssueLoop measures the full run loop — the per-request core
// selection scan plus the request pipeline — at a given core count,
// through System.IssueN.
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

// BenchEventPop measures the run loop's core-selection step: one
// sim.Earliest argmin over 16 next-issue times plus the chosen core's
// reschedule. This is aquabench's perf.event_pop_ns micro; its alloc
// count must stay at zero.
func BenchEventPop(b *testing.B) {
	var next [16]dram.PS
	for i := range next {
		next[i] = dram.PS(1000 + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := sim.Earliest(next[:])
		if root < 0 {
			b.Fatal("every entry finished")
		}
		next[root] += 7919
	}
}

// BenchIssueLoop4 measures the issue loop at the paper's 4-core
// configuration.
func BenchIssueLoop4(b *testing.B) { benchIssueLoop(b, 4) }

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
