package repro

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
)

// labAt builds the reduced-grid lab of lab_test.go at an explicit
// parallelism, for serial-vs-parallel comparisons.
func labAt(parallel int) *Lab {
	return NewLab(LabOptions{
		Window:        500 * dram.PS(dram.Microsecond),
		Workloads:     []string{"xz", "wrf"},
		NoCalibration: true,
		Parallel:      parallel,
	})
}

// TestParallelMatchesSerial is the engine's core contract: the same
// reduced grid rendered serially and with Parallel: 4 emits byte-
// identical tables, for every simulation-backed renderer shape (norm-IPC
// tables, the migration table, the breakdown table, the sensitivity
// sweep).
func TestParallelMatchesSerial(t *testing.T) {
	serial, parallel := labAt(1), labAt(4)
	renderers := []struct {
		name string
		fn   func(*Lab) (string, error)
	}{
		{"figure3", (*Lab).Figure3},
		{"figure6", (*Lab).Figure6},
		{"figure7", (*Lab).Figure7},
		{"figure9", (*Lab).Figure9},
		{"figure10", (*Lab).Figure10},
		{"figure11", (*Lab).Figure11},
		{"table4", (*Lab).Table4},
		{"table6", (*Lab).Table6},
		{"section5f", (*Lab).SensitivityVF},
		{"section5h", (*Lab).PowerReport},
	}
	for _, r := range renderers {
		want, err := r.fn(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", r.name, err)
		}
		got, err := r.fn(parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", r.name, err)
		}
		if got != want {
			t.Errorf("%s diverged under Parallel: 4\n--- serial ---\n%s\n--- parallel ---\n%s",
				r.name, want, got)
		}
	}
	// Both engines simulated the identical cell set, in the same order,
	// each cell (the Section V-F variants included) under its own label.
	s, p := serial.SortedCacheKeys(), parallel.SortedCacheKeys()
	if !reflect.DeepEqual(s, p) {
		t.Errorf("cell sets diverged:\nserial:   %v\nparallel: %v", s, p)
	}
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			t.Errorf("two cells listed as %s", s[i])
		}
	}
}

// TestConcurrentLabRunOverlappingCells exercises the Lab cache and
// singleflight under -race: many goroutines ask for an overlapping cell
// set, and every answer must equal the serial reference.
func TestConcurrentLabRunOverlappingCells(t *testing.T) {
	type cell struct {
		scheme Scheme
		trh    int64
	}
	cells := []cell{
		{SchemeAquaMemMapped, 1000},
		{SchemeRRS, 1000},
		{SchemeAquaMemMapped, 1000}, // deliberate duplicates: callers overlap
		{SchemeRRS, 1000},
	}
	ref := labAt(1)
	want := make(map[cell]sim.WorkloadRun)
	for _, c := range cells {
		r, err := ref.Run("xz", c.scheme, c.trh)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = r
	}

	l := labAt(4)
	const rounds = 4
	var wg sync.WaitGroup
	got := make([]sim.WorkloadRun, rounds*len(cells))
	errs := make([]error, rounds*len(cells))
	for i := 0; i < rounds*len(cells); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cells[i%len(cells)]
			got[i], errs[i] = l.Run("xz", c.scheme, c.trh)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		c := cells[i%len(cells)]
		if !reflect.DeepEqual(got[i], want[c]) {
			t.Fatalf("caller %d (%v/%d) diverged from the serial reference", i, c.scheme, c.trh)
		}
	}
}

func TestPrecomputeFillsCache(t *testing.T) {
	l := labAt(4)
	if err := l.Precompute(
		GridCell{Scheme: SchemeAquaMemMapped, TRH: 1000},
		GridCell{Scheme: SchemeRRS, TRH: 1000},
	); err != nil {
		t.Fatal(err)
	}
	keys := l.SortedCacheKeys()
	if len(keys) != 4 { // 2 workloads x 2 cells
		t.Fatalf("precompute cached %d cells, want 4: %v", len(keys), keys)
	}
}

func TestPaperGridCoversComparedSchemes(t *testing.T) {
	seen := make(map[Scheme]bool)
	for _, c := range PaperGrid() {
		seen[c.Scheme] = true
	}
	for _, s := range []Scheme{SchemeBaseline, SchemeAquaSRAM, SchemeAquaMemMapped,
		SchemeRRS, SchemeBlockhammer, SchemeVictimRefresh} {
		if !seen[s] {
			t.Errorf("PaperGrid missing scheme %v", s)
		}
	}
}
