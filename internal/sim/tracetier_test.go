package sim

import (
	"context"
	"maps"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/workload"
)

// traceCfg is a reduced experiment for trace-tier tests: tiny window, no
// calibration, serial so counter expectations are exact.
func traceCfg() ExpConfig {
	return ExpConfig{
		Window:    150 * dram.PS(dram.Microsecond),
		Calibrate: false,
		Parallel:  1,
	}
}

var traceCells = []GridCell{
	{Scheme: SchemeAquaMemMapped, TRH: 1000},
	{Scheme: SchemeRRS, TRH: 1000},
}

// generated returns the streams a case's cores would draw straight from
// the workload generator at the given nominal IPC, built here rather
// than by the Runner: the reference the trace tier must reproduce.
func generated(t *testing.T, r *Runner, name string, nominal float64) []cpu.Stream {
	t.Helper()
	specs, err := caseSpecs(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.Config()
	params := workload.Params{EpochLength: dram.DDR4().TREFW, NominalIPC: nominal, Cores: paperCores}
	out := make([]cpu.Stream, paperCores)
	for core := range out {
		reqs := requestBudget(cfg.Window, nominal, specs[core].MPKI)
		gen := workload.NewGenerator(specs[core], r.region, core, cfg.Seed, params)
		out[core] = gen.Stream(reqs, cfg.Seed+uint64(core)*7919)
	}
	return out
}

func drainRequests(s cpu.Stream) []cpu.Request {
	var reqs []cpu.Request
	for {
		req, ok := s.Next()
		if !ok {
			return reqs
		}
		reqs = append(reqs, req)
	}
}

// TestTraceReplayMatchesGeneration is the replay-vs-generation
// equivalence gate. For every case at two nominal IPCs, the streams the
// Runner serves — the first call captures (or replays a stream another
// case captured), the second replays — must equal the generator's own,
// record for record. A cell simulated over replayed streams must then
// equal a System run over the generator's streams.
func TestTraceReplayMatchesGeneration(t *testing.T) {
	r := NewRunner(ExpConfig{Window: dram.Millisecond, Parallel: 1})
	cores := int64(paperCores)
	for _, name := range AllCaseNames() {
		for _, nominal := range []float64{1.0, 0.37} {
			var want [][]cpu.Request
			for _, s := range generated(t, r, name, nominal) {
				want = append(want, drainRequests(s))
			}
			for call := 0; call < 2; call++ {
				before := r.CellStats()
				got, err := r.streamsFor(name, nominal, true)
				if err != nil {
					t.Fatal(err)
				}
				if st := r.CellStats(); call == 1 &&
					(st.TraceCaptures != before.TraceCaptures || st.TraceReplays != before.TraceReplays+cores) {
					t.Fatalf("%s@%v: second streamsFor captured %d and replayed %d streams, want 0 and %d",
						name, nominal, st.TraceCaptures-before.TraceCaptures, st.TraceReplays-before.TraceReplays, cores)
				}
				for core, s := range got {
					if !slices.Equal(drainRequests(s), want[core]) {
						t.Fatalf("%s@%v core %d call %d: served stream differs from the generator's", name, nominal, core, call)
					}
				}
			}
		}
	}

	run, err := r.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := NewSystem(Config{TRH: 1000, Scheme: SchemeAquaMemMapped, Seed: r.Config().Seed},
		generated(t, r, "xz", 1.0)).Run(0)
	if !reflect.DeepEqual(run.Result, want) {
		t.Fatalf("replayed cell diverged from a run over generated streams:\nreplay: %+v\ngen:    %+v", run.Result, want)
	}
}

// heldBytes sums the bytes of the packed streams r's trace tier holds.
func heldBytes(r *Runner) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, p := range r.traceMem {
		n += p.Bytes()
	}
	return n
}

// TestTraceTierCounters checks the capture/replay accounting: each
// (workload, core) captures once, every later stream build replays, and
// TraceBytes is what the held streams pack to. A calibration pass
// captures its streams, counts them and keeps none of them.
func TestTraceTierCounters(t *testing.T) {
	r := NewRunner(traceCfg())
	if err := r.Precompute(context.Background(), []string{"xz"}, traceCells); err != nil {
		t.Fatal(err)
	}
	stats := r.CellStats()
	cores := int64(paperCores)
	if stats.TraceCaptures != cores {
		t.Fatalf("TraceCaptures = %d, want %d (one per core)", stats.TraceCaptures, cores)
	}
	// Three runs build streams (the baseline measurement plus two scheme
	// cells); the first captures, the other two replay.
	if want := 2 * cores; stats.TraceReplays != want {
		t.Fatalf("TraceReplays = %d, want %d", stats.TraceReplays, want)
	}
	if held := heldBytes(r); held == 0 || stats.TraceBytes != held {
		t.Fatalf("TraceBytes = %d, want %d (the held streams' bytes)", stats.TraceBytes, held)
	}

	// Calibrated: mix06 runs xz on cores 0 and 2, so its calibration pass
	// asks for two of xz's nominal-1.0 streams. Neither pass keeps them,
	// so mix06 captures all four of its own, and after both baselines the
	// tier holds exactly the two workloads' calibrated streams.
	cal := NewRunner(ExpConfig{Window: dram.Millisecond, Calibrate: true, Parallel: 1})
	want := make(map[streamKey]bool)
	for i, name := range []string{"xz", "mix06"} {
		if _, err := cal.Run(name, SchemeBaseline, 1000); err != nil {
			t.Fatal(err)
		}
		specs, err := caseSpecs(name)
		if err != nil {
			t.Fatal(err)
		}
		ipc, err := cal.baselineIPC(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		for core, spec := range specs {
			want[streamKey{spec.Name, core, ipc, requestBudget(dram.Millisecond, ipc, spec.MPKI)}] = true
		}
		// Each workload's calibration and baseline pass capture a stream
		// per core.
		st := cal.CellStats()
		if caps := int64(i+1) * 2 * cores; st.TraceCaptures != caps || st.TraceReplays != 0 {
			t.Fatalf("after %s: %d captures and %d replays, want %d and 0",
				name, st.TraceCaptures, st.TraceReplays, caps)
		}
	}
	cal.mu.Lock()
	held := make(map[streamKey]bool)
	for k := range cal.traceMem {
		held[k] = true
	}
	cal.mu.Unlock()
	if !maps.Equal(held, want) {
		t.Fatalf("tier holds %v, want only the calibrated streams %v", held, want)
	}
	if st := cal.CellStats(); st.TraceBytes != heldBytes(cal) {
		t.Fatalf("TraceBytes = %d, want %d (the held streams' bytes)", st.TraceBytes, heldBytes(cal))
	}
}

// TestTraceBudgetFallback runs with a budget below any capture: every
// stream build captures and is served uncached, and the results still
// match the in-memory-tier run.
func TestTraceBudgetFallback(t *testing.T) {
	cells := withBaseline(traceCells)
	want := precomputeGrid(t, NewRunner(traceCfg()), []string{"xz"}, cells)
	r := NewRunner(traceCfg())
	r.traceBudget = 1
	got := precomputeGrid(t, r, []string{"xz"}, cells)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("over-budget grid diverged from in-memory-tier grid")
	}
	stats := r.CellStats()
	cores := int64(paperCores)
	if stats.TraceCaptures != 3*cores {
		t.Fatalf("TraceCaptures = %d, want %d (every build recaptures)", stats.TraceCaptures, 3*cores)
	}
	if stats.TraceReplays != 0 {
		t.Fatalf("uncached fallback still counted replays: %+v", stats)
	}
}

// TestFullGridTraceTier measures the trace tier the full paper grid
// needs: its bytes after every workload's calibration and baseline pass
// over the 34-workload 64 ms grid at the default seed. Calibration passes
// keep no stream and scheme cells only replay the baseline passes'
// calibrated streams, so this is the tier's peak, and it must fit the
// in-memory budget because nothing spills. The run takes about 25 s on
// a 2-vCPU host, so it is opt-in (CI runs it):
//
//	REPRO_TRACE_TIER_FULL=1 go test -run TestFullGridTraceTier -v ./internal/sim
func TestFullGridTraceTier(t *testing.T) {
	if os.Getenv("REPRO_TRACE_TIER_FULL") == "" {
		t.Skip("set REPRO_TRACE_TIER_FULL=1 to measure the full-grid trace tier")
	}
	r := NewRunner(ExpConfig{Calibrate: true, Parallel: 1})
	window := r.Config().Window
	names := AllCaseNames()
	for _, name := range names {
		if _, err := r.Run(name, SchemeBaseline, 1000); err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	var records int64
	for _, p := range r.traceMem {
		records += p.Len()
	}
	streams := len(r.traceMem)
	for _, name := range names {
		specs, err := caseSpecs(name)
		if err != nil {
			t.Fatal(err)
		}
		for core, spec := range specs {
			k := streamKey{spec.Name, core, 1.0, requestBudget(window, 1.0, spec.MPKI)}
			if _, ok := r.traceMem[k]; ok {
				t.Errorf("tier holds %s's calibration-pass stream %+v", name, k)
			}
		}
	}
	r.mu.Unlock()
	st := r.CellStats()
	const mib = 1 << 20
	t.Logf("trace tier: %d B (%.1f MiB) in %d streams; %d records, %.3f B/record; %d captures, %d replays; budget %d B",
		st.TraceBytes, float64(st.TraceBytes)/mib, streams, records, float64(st.TraceBytes)/float64(records),
		st.TraceCaptures, st.TraceReplays, int64(traceBudgetBytes))
	if st.TraceBytes > traceBudgetBytes {
		t.Errorf("full-grid trace tier %d B exceeds the %d B budget", st.TraceBytes, int64(traceBudgetBytes))
	}
}
