package repro

// Acceptance tests for the fault-injection layer and the resilient
// experiment engine (see DESIGN.md "Failure model & graceful
// degradation"):
//
//   - a lab run with an injected panicking cell completes, reports the
//     panic as a structured *sim.CellError, and renders every figure that
//     doesn't depend on the broken cell byte-identically to the golden
//     file;
//   - a degraded cell (injected hardware fault the scheme recovered from)
//     completes and shows up in FaultedCells;
//   - a run interrupted after partial completion and rerun over its
//     cache directory reproduces the uninterrupted golden output exactly;
//   - a cancelled lab surfaces the context's error.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/sim"
)

// goldenSections parses the committed golden file into its "=== name ==="
// sections.
func goldenSections(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "lab_golden.txt"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	out := make(map[string]string)
	parts := strings.Split(string(raw), "=== ")
	for _, p := range parts[1:] {
		name, body, ok := strings.Cut(p, " ===\n")
		if !ok {
			t.Fatalf("malformed golden section %q", p[:40])
		}
		out[name] = body
	}
	return out
}

// faultedLab builds the reduced golden lab with fault rules attached.
func faultedLab(t *testing.T, spec string) *Lab {
	t.Helper()
	rules, err := fault.ParseRules(spec)
	if err != nil {
		t.Fatal(err)
	}
	return NewLab(LabOptions{
		Window:        500 * dram.PS(dram.Microsecond),
		Workloads:     []string{"xz", "wrf"},
		NoCalibration: true,
		Parallel:      2,
		Faults:        rules,
	})
}

// TestLabFaultMatrix is the headline acceptance scenario: one injected
// panicking cell plus one injected hardware-fault cell. The run must
// complete, report the panic with full cell identity, flag the degraded
// cell, and leave every untouched renderer byte-identical to the golden
// file.
func TestLabFaultMatrix(t *testing.T) {
	l := faultedLab(t, "xz/rrs/1000=panic@once:0;wrf/aqua-sram/1000=refresh-collision@p:0.5")
	golden := goldenSections(t)

	// Renderers whose grid contains xz/rrs/1000 fail — with the cell named.
	for _, r := range Renderers() {
		switch r.Name {
		case "figure3", "figure6", "figure7", "table6":
			_, err := r.Fn(l)
			var ce *sim.CellError
			if !errors.As(err, &ce) {
				t.Fatalf("%s: got %v, want *sim.CellError", r.Name, err)
			}
			if ce.Workload != "xz" || ce.Scheme != SchemeRRS || ce.TRH != 1000 {
				t.Fatalf("%s failed on cell %s/%s/%d, want xz/rrs/1000", r.Name, ce.Workload, ce.Scheme, ce.TRH)
			}
			if len(ce.Stack) == 0 {
				t.Fatalf("%s: panic CellError carries no stack", r.Name)
			}
		}
	}

	// figure9 contains the degraded (but surviving) wrf/aqua-sram cell: it
	// must complete, and the injection must be visible in the summary.
	if _, err := l.Figure9(); err != nil {
		t.Fatalf("figure9 should survive a recovered hardware fault: %v", err)
	}
	faulted := l.FaultedCells()
	found := false
	for _, c := range faulted {
		if c.Workload == "wrf" && c.Scheme == SchemeAquaSRAM && c.TRH == 1000 && c.Injected > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("FaultedCells() = %+v, want wrf/aqua-sram/1000 listed", faulted)
	}

	// Every renderer whose grid avoids both faulted cells must render
	// byte-identically to the committed golden output.
	for _, r := range Renderers() {
		switch r.Name {
		case "table2", "figure10", "figure11", "table4", "section5f", "section5h":
			out, err := r.Fn(l)
			if err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			if want, ok := golden[r.Name]; !ok {
				t.Fatalf("golden file has no section %q", r.Name)
			} else if out+"\n" != want {
				t.Errorf("%s diverged from golden under unrelated faults:\n%s", r.Name, firstDiff(want, out+"\n"))
			}
		}
	}
}

// TestLabResumeGolden: a lab that completed only part of the evaluation
// before stopping, then a fresh lab rerun over the same cache directory,
// must reproduce the uninterrupted golden byte stream exactly — while
// serving every cell the first lab finished from the store and
// simulating only the rest.
func TestLabResumeGolden(t *testing.T) {
	dir := t.TempDir()

	// Partial run: two renderers' worth of cells, then stop (standing in
	// for a run killed mid-grid; entries land atomically one cell at a
	// time, so any kill point leaves a valid set).
	l1 := labAt(1)
	l1.AttachCache(warmStore(t, dir))
	if _, err := l1.Figure7(); err != nil {
		t.Fatal(err)
	}
	if _, err := l1.Figure10(); err != nil {
		t.Fatal(err)
	}
	done := l1.CellStats().Simulated

	// Rerun: full render from a fresh lab over the same directory.
	l2 := labAt(1)
	l2.AttachCache(warmStore(t, dir))
	got, err := renderGoldenLab(l2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "lab_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("resumed lab output diverged from golden:\n%s", firstDiff(string(want), got))
	}
	cs := l2.CellStats()
	if done == 0 || cs.CacheHits != done {
		t.Fatalf("rerun stats %+v; want the first lab's %d cells served from the store", cs, done)
	}
	// A cold lab simulates every unique cell of the render: the ones the
	// rerun served plus the ones it simulated.
	cold := labAt(1)
	if _, err := renderGoldenLab(cold); err != nil {
		t.Fatal(err)
	}
	if coldSim := cold.CellStats().Simulated; cs.Simulated+done != coldSim {
		t.Fatalf("rerun simulated %d cells after %d served; a cold lab simulated %d", cs.Simulated, done, coldSim)
	}

	// A lab with different options hashes to different keys: nothing the
	// first lab stored is served to it.
	store := warmStore(t, dir)
	l3 := NewLab(LabOptions{
		Window:        500 * dram.PS(dram.Microsecond),
		Workloads:     []string{"xz", "wrf"},
		NoCalibration: true,
		Parallel:      1,
		Seed:          0xD15EA5E,
	})
	l3.AttachCache(store)
	if _, err := l3.Figure7(); err != nil {
		t.Fatal(err)
	}
	if hits := store.Stats().DiskHits; l3.CellStats().CacheHits != 0 || hits != 0 {
		t.Fatalf("different-seed lab took %d cell hits and %d store hits, want 0", l3.CellStats().CacheHits, hits)
	}
}

// TestLabCancelledContext: a lab whose context is already done must fail
// fast with the context's error instead of simulating.
func TestLabCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := NewLab(LabOptions{
		Window:        500 * dram.PS(dram.Microsecond),
		Workloads:     []string{"xz", "wrf"},
		NoCalibration: true,
		Parallel:      2,
		Context:       ctx,
	})
	_, err := l.Figure7()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lab returned %v, want context.Canceled", err)
	}
}

// TestFaultedLabRulesRoundTrip pins the CLI grammar used throughout the
// docs: the canonical string of parsed rules re-parses to the same rules.
func TestFaultedLabRulesRoundTrip(t *testing.T) {
	spec := "xz/rrs/1000=panic@once:0;*/aqua-memmapped/*=ecc-flip@p:0.01"
	rules, err := fault.ParseRules(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := fault.ParseRules(rules.String())
	if err != nil {
		t.Fatal(err)
	}
	if rules.String() != again.String() {
		t.Fatalf("rules did not round-trip: %q vs %q", rules.String(), again.String())
	}
	if fmt.Sprint(rules.PlanFor("xz", "rrs", 1000)) != fmt.Sprint(again.PlanFor("xz", "rrs", 1000)) {
		t.Fatalf("round-tripped rules produce a different plan")
	}
}
