package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dram"
)

// gridCfg is a reduced experiment: tiny window, no calibration, so the
// serial/parallel comparison fits in CI time. (The geometry stays the
// baseline — AQUA's quarantine reservation needs the full bank — so the
// system build dominates; keep the grid small.)
func gridCfg(parallel int) ExpConfig {
	return ExpConfig{
		Window:   150 * dram.PS(dram.Microsecond),
		Parallel: parallel,
	}
}

var (
	gridNames = []string{"xz", "wrf"}
	gridCells = []GridCell{
		{Scheme: SchemeAquaMemMapped, TRH: 1000},
		{Scheme: SchemeRRS, TRH: 1000},
	}
)

// cellOf reads one cell back from r with RunCtx, failing the test on
// error.
func cellOf(t *testing.T, r *Runner, name string, cell GridCell) WorkloadRun {
	t.Helper()
	run, err := r.RunCtx(context.Background(), name, cell)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// gridOf reads names x cells back from r: grid[i][j] is names[i] under
// cells[j]. After a Precompute over the same grid every read is a memo
// hit.
func gridOf(t *testing.T, r *Runner, names []string, cells []GridCell) [][]WorkloadRun {
	t.Helper()
	grid := make([][]WorkloadRun, len(names))
	for i, name := range names {
		grid[i] = make([]WorkloadRun, len(cells))
		for j, cell := range cells {
			grid[i][j] = cellOf(t, r, name, cell)
		}
	}
	return grid
}

// precomputeGrid fans names x cells out with Precompute, then reads the
// grid back with gridOf.
func precomputeGrid(t *testing.T, r *Runner, names []string, cells []GridCell) [][]WorkloadRun {
	t.Helper()
	if err := r.Precompute(context.Background(), names, cells); err != nil {
		t.Fatal(err)
	}
	return gridOf(t, r, names, cells)
}

// withBaseline is cells plus every workload's baseline cell, last.
func withBaseline(cells []GridCell) []GridCell {
	return append(cells[:len(cells):len(cells)], baselineCell)
}

func TestPrecomputeParallelMatchesSerial(t *testing.T) {
	cells := withBaseline(gridCells)
	serial := precomputeGrid(t, NewRunner(gridCfg(1)), gridNames, cells)
	parallel := precomputeGrid(t, NewRunner(gridCfg(4)), gridNames, cells)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel grid diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	for i, row := range parallel {
		for j, run := range row {
			if run.Workload != gridNames[i] || run.Scheme != cells[j].Scheme || run.TRH != cells[j].TRH {
				t.Fatalf("grid cell %d/%d is %s, want %s (canonical order lost)",
					i, j, run.Label(), cellLabel(gridNames[i], cells[j].Scheme, cells[j].TRH, ""))
			}
		}
		if base := row[len(cells)-1]; base.Result.IPC <= 0 {
			t.Fatalf("%s: baseline not resolved", gridNames[i])
		}
	}
}

// TestConcurrentRunnerOverlappingCells drives one Runner from many
// goroutines that all want the same workload, so the calibration and
// baseline singleflight paths are exercised under the race detector, and
// checks every caller saw the identical result.
func TestConcurrentRunnerOverlappingCells(t *testing.T) {
	r := NewRunner(gridCfg(4))
	want, err := r.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewRunner(gridCfg(4))
	const callers = 8
	got := make([]WorkloadRun, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = fresh.Run("xz", SchemeAquaMemMapped, 1000)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("caller %d diverged from the serial result", i)
		}
	}
}
