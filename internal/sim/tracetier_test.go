package sim

import (
	"context"
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
	windowInstr := float64(cfg.Window) / 1e12 * 3e9 * nominal
	out := make([]cpu.Stream, paperCores)
	for core := range out {
		reqs := int64(windowInstr*specs[core].MPKI/1000) + 16
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
				got, err := r.streamsFor(name, nominal)
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

// TestTraceTierCounters checks the capture/replay accounting: each
// (workload, core) captures once, and every later stream build replays.
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
// over the 34-workload 64 ms grid at the default seed. Scheme cells only
// replay those streams, so this is the tier's peak, and it must fit the
// in-memory budget because nothing spills. The run takes about 20 s on
// a 2-vCPU host, so it is opt-in (CI runs it):
//
//	REPRO_TRACE_TIER_FULL=1 go test -run TestFullGridTraceTier -v ./internal/sim
func TestFullGridTraceTier(t *testing.T) {
	if os.Getenv("REPRO_TRACE_TIER_FULL") == "" {
		t.Skip("set REPRO_TRACE_TIER_FULL=1 to measure the full-grid trace tier")
	}
	r := NewRunner(ExpConfig{Calibrate: true, Parallel: 1})
	var calibrated, calibratedStreams, records int64
	dropped := make(map[streamKey]bool)
	for _, name := range AllCaseNames() {
		if _, err := r.Run(name, SchemeBaseline, 1000); err != nil {
			t.Fatal(err)
		}
		// A stream at a calibrated IPC belongs to one workload: tally it
		// and drop it, keeping the test's footprint near the shared
		// nominal-1.0 calibration streams, which the mixes reuse.
		r.mu.Lock()
		for k, p := range r.traceMem {
			if k.nominal == 1.0 {
				continue
			}
			if dropped[k] {
				t.Errorf("stream %+v captured twice", k)
			}
			dropped[k] = true
			calibrated += p.Bytes()
			calibratedStreams++
			records += p.Len()
			r.traceBytes -= p.Bytes()
			delete(r.traceMem, k)
		}
		r.mu.Unlock()
	}
	r.mu.Lock()
	nominal := r.traceBytes
	for _, p := range r.traceMem {
		records += p.Len()
	}
	r.mu.Unlock()
	total := nominal + calibrated
	st := r.CellStats()
	const mib = 1 << 20
	t.Logf("trace tier: %d B (%.1f MiB) = %.1f MiB nominal-1.0 calibration streams + %.1f MiB calibrated streams (%d); %d records, %.3f B/record; %d captures, %d replays; budget %d B",
		total, float64(total)/mib, float64(nominal)/mib, float64(calibrated)/mib, calibratedStreams,
		records, float64(total)/float64(records), st.TraceCaptures, st.TraceReplays, int64(traceBudgetBytes))
	if total > traceBudgetBytes {
		t.Errorf("full-grid trace tier %d B exceeds the %d B budget", total, int64(traceBudgetBytes))
	}
}
