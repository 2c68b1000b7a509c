package repro

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
)

// SortedCacheKeys lists the lab's memoized cells by label
// (sim.WorkloadRun.Label), in the Runner's canonical order.
func (l *Lab) SortedCacheKeys() []string {
	var keys []string
	for _, r := range l.runner.Cells() {
		keys = append(keys, r.Label())
	}
	return keys
}

// TestParallelMatchesSerial is the engine's core contract: every
// registry entry rendered on the reduced grid serially and with
// Parallel: 4 emits byte-identical output.
func TestParallelMatchesSerial(t *testing.T) {
	serial, parallel := labAt(1), labAt(4)
	for _, r := range Renderers() {
		want, err := r.Fn(serial)
		if err != nil {
			t.Fatalf("%s serial: %v", r.Name, err)
		}
		got, err := r.Fn(parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", r.Name, err)
		}
		if got != want {
			t.Errorf("%s diverged under Parallel: 4\n--- serial ---\n%s\n--- parallel ---\n%s",
				r.Name, want, got)
		}
	}
	// Both engines simulated the identical cell set, in the same order,
	// each cell (variants, tier counts and the co-run included) under its
	// own label.
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

// TestPaperGridMatchesRegistry: rendering every registry entry on the
// reduced lab memoizes exactly PaperGrid's ten cells as its plain cells
// (no Variant), once per workload.
func TestPaperGridMatchesRegistry(t *testing.T) {
	l := labAt(2)
	for _, r := range Renderers() {
		if _, err := r.Fn(l); err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
	}
	got := make(map[GridCell]int)
	for _, run := range l.runner.Cells() {
		if run.Variant == "" {
			got[GridCell{Scheme: run.Scheme, TRH: run.TRH}]++
		}
	}
	want := make(map[GridCell]int)
	for _, c := range PaperGrid() {
		want[c] += len(l.opts.Workloads)
	}
	if len(PaperGrid()) != 10 || !reflect.DeepEqual(got, want) {
		t.Errorf("plain cells memoized per cell: %v\nPaperGrid's %d cells over %d workloads: %v",
			got, len(PaperGrid()), len(l.opts.Workloads), want)
	}
}
