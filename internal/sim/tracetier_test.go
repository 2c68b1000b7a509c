package sim

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/dram"
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

// TestTraceReplayMatchesGeneration is the scheme-invariance equivalence
// gate in unit form: a grid run replaying captured traces must be
// byte-identical to one regenerating every stream.
func TestTraceReplayMatchesGeneration(t *testing.T) {
	names := []string{"xz", "wrf"}
	replay, err := NewRunner(traceCfg()).RunGrid(names, traceCells)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traceCfg()
	cfg.DisableTraceReplay = true
	regen, err := NewRunner(cfg).RunGrid(names, traceCells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, regen) {
		t.Fatalf("replayed grid diverged from regenerated:\nreplay: %+v\nregen:  %+v", replay, regen)
	}
}

// TestTraceTierCounters checks the capture/replay accounting: each
// (workload, core) captures once, and every later stream build replays.
func TestTraceTierCounters(t *testing.T) {
	r := NewRunner(traceCfg())
	if _, err := r.RunGrid([]string{"xz"}, traceCells); err != nil {
		t.Fatal(err)
	}
	stats := r.CellStats()
	cores := int64(r.Config().Cores)
	if stats.TraceCaptures != cores {
		t.Fatalf("TraceCaptures = %d, want %d (one per core)", stats.TraceCaptures, cores)
	}
	// Three runs build streams (the baseline measurement plus two scheme
	// cells); the first captures, the other two replay.
	if want := 2 * cores; stats.TraceReplays != want {
		t.Fatalf("TraceReplays = %d, want %d", stats.TraceReplays, want)
	}

	off := traceCfg()
	off.DisableTraceReplay = true
	r2 := NewRunner(off)
	if _, err := r2.RunGrid([]string{"xz"}, traceCells); err != nil {
		t.Fatal(err)
	}
	if s := r2.CellStats(); s.TraceCaptures != 0 || s.TraceReplays != 0 {
		t.Fatalf("disabled tier still counted: %+v", s)
	}
}

// TestTraceBudgetFallback runs with a budget below any capture: every
// stream build captures and is served uncached, and the results still
// match the in-memory-tier run.
func TestTraceBudgetFallback(t *testing.T) {
	want, err := NewRunner(traceCfg()).RunGrid([]string{"xz"}, traceCells)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(traceCfg())
	r.traceBudget = 1
	got, err := r.RunGrid([]string{"xz"}, traceCells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("over-budget grid diverged from in-memory-tier grid")
	}
	stats := r.CellStats()
	cores := int64(r.Config().Cores)
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
// in-memory budget because nothing spills. The run takes minutes, so it
// is opt-in:
//
//	REPRO_TRACE_TIER_FULL=1 go test -run TestFullGridTraceTier -v ./internal/sim
func TestFullGridTraceTier(t *testing.T) {
	if os.Getenv("REPRO_TRACE_TIER_FULL") == "" {
		t.Skip("set REPRO_TRACE_TIER_FULL=1 to measure the full-grid trace tier")
	}
	r := NewRunner(ExpConfig{Calibrate: true, Parallel: 1})
	var calibrated, calibratedStreams int64
	dropped := make(map[genKey]bool)
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
			r.traceBytes -= p.Bytes()
			delete(r.traceMem, k)
		}
		r.mu.Unlock()
	}
	r.mu.Lock()
	nominal := r.traceBytes
	r.mu.Unlock()
	total := nominal + calibrated
	st := r.CellStats()
	const mib = 1 << 20
	t.Logf("trace tier: %d B (%.1f MiB) = %.1f MiB nominal-1.0 calibration streams + %.1f MiB calibrated streams (%d); %d captures, %d replays; budget %d B",
		total, float64(total)/mib, float64(nominal)/mib, float64(calibrated)/mib, calibratedStreams,
		st.TraceCaptures, st.TraceReplays, int64(traceBudgetBytes))
	if total > traceBudgetBytes {
		t.Errorf("full-grid trace tier %d B exceeds the %d B budget", total, int64(traceBudgetBytes))
	}
}
