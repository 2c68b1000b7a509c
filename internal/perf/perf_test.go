package perf

import (
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracker"
	"repro/internal/workload"
)

func BenchmarkAccess(b *testing.B)          { BenchAccess(b) }
func BenchmarkSubmit(b *testing.B)          { BenchSubmit(b) }
func BenchmarkTrackerACT(b *testing.B)      { BenchTrackerACT(b) }
func BenchmarkTrackerACTHot(b *testing.B)   { BenchTrackerACTHot(b) }
func BenchmarkTrackerACTCold(b *testing.B)  { BenchTrackerACTCold(b) }
func BenchmarkTranslate(b *testing.B)       { BenchTranslate(b) }
func BenchmarkGeneratorStream(b *testing.B) { BenchGeneratorStream(b) }
func BenchmarkTraceReplay(b *testing.B)     { BenchTraceReplay(b) }
func BenchmarkEventPop(b *testing.B)        { BenchEventPop(b) }
func BenchmarkIssueLoop4(b *testing.B)      { BenchIssueLoop4(b) }

// mallocs runs fn n times and returns the mallocs made meanwhile. The
// tests that drive the tracker count this way rather than with
// testing.AllocsPerRun, which divides by n in integers: a table that grows
// now and then over 5,000 runs reads 0 allocs/op there.
func mallocs(n int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRequestPathZeroAlloc is the allocation budget: the steady-state
// request path — cpu.Core.Issue through memctrl.Submit, the FPT
// translate, the DRAM access, and the tracker update — must allocate
// nothing once warm. Any regression here multiplies into GC pressure at
// hundreds of millions of requests per figure run.
func TestRequestPathZeroAlloc(t *testing.T) {
	sys := sim.NewSystem(sim.Config{
		Scheme: sim.SchemeAquaMemMapped,
		TRH:    1000,
		Cores:  1,
	}, []cpu.Stream{NewSyntheticStream(dram.Baseline())})
	c := sys.Cores[0]
	submit := sys.Ctrl.Submit
	issueOne := func() {
		at, ok := c.NextIssueTime()
		if !ok {
			t.Fatal("synthetic stream exhausted")
		}
		c.Issue(at, submit)
	}
	// Warm every lazily-sized structure (miss-slot ring, burst state) past
	// its steady state. The tracker's tables reach their high-water mark
	// in the first reqSpread requests, once every row of the pattern is
	// tracked.
	for i := 0; i < 20000; i++ {
		issueOne()
	}
	if n := mallocs(5000, issueOne); n != 0 {
		t.Fatalf("5000 steady-state requests made %d mallocs, want 0", n)
	}
}

// TestTranslateTrackerZeroAlloc holds the budget for the two flattened
// profile leaders in isolation: AQUA's translate, under SRAM and under
// memory-mapped tables, and both tracker RecordACT paths must not
// allocate. The tracker's tables grow as rows are installed, so the cold
// stride first fills every bank to its capacity; the measured installs
// then all take the spill-swap path.
func TestTranslateTrackerZeroAlloc(t *testing.T) {
	var sys *sim.System
	for _, scheme := range []sim.Scheme{sim.SchemeAquaSRAM, sim.SchemeAquaMemMapped} {
		sys = sim.NewSystem(sim.Config{
			Scheme: scheme,
			TRH:    1000,
			Cores:  1,
		}, []cpu.Stream{NewSyntheticStream(dram.Baseline())})
		geom := sys.Rank.Geometry()
		i := 0
		if n := mallocs(5000, func() {
			sys.Mit.Translate(rowPattern(geom, i), 0)
			i++
		}); n != 0 {
			t.Fatalf("%v: 5000 translates made %d mallocs, want 0", scheme, n)
		}
	}
	geom := sys.Rank.Geometry()
	tr := sys.Aqua.Tracker().(*tracker.MisraGries)
	j := 0
	act := func() {
		tr.RecordACT(geom.RowOf(j%geom.Banks, (j*1021)%geom.RowsPerBank))
		tr.RecordACT(geom.RowOf(j%geom.Banks, 0))
		j++
	}
	// The stride repeats a row only after RowsPerBank ACTs per bank, so
	// this installs ProvisionEntries distinct rows in every bank.
	for full := tracker.ProvisionEntries(sys.Rank.Timing(), tr.Threshold()) * geom.Banks; j < full; {
		act()
	}
	if n := mallocs(5000, act); n != 0 {
		t.Fatalf("5000 warm ACT pairs made %d mallocs, want 0", n)
	}
}

// TestIssueLoopZeroAlloc holds the allocation budget for the run loop at
// 8 cores: once the tracker's tables are warm, rescanning the cores'
// next-issue times (each IssueN call rebuilds them) and issuing a request
// must not allocate.
func TestIssueLoopZeroAlloc(t *testing.T) {
	const cores = 8
	streams := make([]cpu.Stream, cores)
	for i := range streams {
		streams[i] = NewSyntheticStream(dram.Baseline())
	}
	sys := sim.NewSystem(sim.Config{
		Scheme: sim.SchemeAquaMemMapped,
		TRH:    1000,
		Cores:  cores,
	}, streams)
	if got := sys.IssueN(20000); got != 20000 {
		t.Fatalf("warmup issued %d of 20000", got)
	}
	if n := mallocs(5000, func() { sys.IssueN(1) }); n != 0 {
		t.Fatalf("5000 issue-loop steps made %d mallocs, want 0", n)
	}
}

// TestWorkloadStreamZeroAlloc holds the same budget for workload
// synthesis: stream.Next must not allocate once the stream is built.
func TestWorkloadStreamZeroAlloc(t *testing.T) {
	spec, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("gcc spec missing")
	}
	gen := workload.NewGenerator(spec, workload.Region{Geom: dram.Baseline()}, 0, 1, workload.Params{})
	s := gen.Stream(1<<40, 1)
	for i := 0; i < 1000; i++ {
		s.Next()
	}
	if avg := testing.AllocsPerRun(5000, func() { s.Next() }); avg != 0 {
		t.Fatalf("stream.Next allocates %.2f allocs/op, want 0", avg)
	}
}

// TestTraceReplayZeroAlloc holds the same budget for the replay tier:
// PackedStream.Next over a captured stream must not allocate — the
// record-once/replay-many design only pays off if replay is free of GC
// pressure.
func TestTraceReplayZeroAlloc(t *testing.T) {
	spec, ok := workload.ByName("gcc")
	if !ok {
		t.Fatal("gcc spec missing")
	}
	gen := workload.NewGenerator(spec, workload.Region{Geom: dram.Baseline()}, 0, 1, workload.Params{})
	p := trace.PackStream(gen.Stream(1<<16, 1), 1<<16)
	s := p.Stream()
	if avg := testing.AllocsPerRun(5000, func() {
		if _, ok := s.Next(); !ok {
			s = p.Stream()
		}
	}); avg != 0 {
		t.Fatalf("PackedStream.Next allocates %.2f allocs/op, want 0", avg)
	}
}
