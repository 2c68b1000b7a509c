package sim

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cellcache"
	"repro/internal/fault"
)

// dupCells is a grid with a repeated cell, the shape every threshold
// sweep produces (the same baseline cell at every sweep point).
var dupCells = []GridCell{
	{Scheme: SchemeAquaMemMapped, TRH: 1000},
	{Scheme: SchemeRRS, TRH: 1000},
	{Scheme: SchemeAquaMemMapped, TRH: 1000},
}

// TestRunGridDedupSimulatesOnce pins the no-cache dedup guarantee:
// identical cells inside one grid — whether requested sequentially
// (serial) or concurrently (parallel) — simulate exactly once, and the
// duplicate requests are answered from the same completed execution.
func TestRunGridDedupSimulatesOnce(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		r := NewRunner(gridCfg(parallel))
		out, err := r.RunGrid(gridNames, dupCells)
		if err != nil {
			t.Fatal(err)
		}
		// Per workload: 3 requested cells + 1 baseline row, of which the
		// repeated aqua cell is a duplicate -> 3 unique simulations.
		st := r.CellStats()
		wantRequests := int64(len(gridNames) * (len(dupCells) + 1))
		wantSimulated := int64(len(gridNames) * 3)
		if st.Requests != wantRequests {
			t.Fatalf("parallel=%d: %d requests, want %d (stats %+v)", parallel, st.Requests, wantRequests, st)
		}
		if st.Simulated != wantSimulated {
			t.Fatalf("parallel=%d: %d cells simulated, want %d (stats %+v)", parallel, st.Simulated, wantSimulated, st)
		}
		if want := wantRequests - wantSimulated; st.Deduped() != want {
			t.Fatalf("parallel=%d: Deduped() = %d, want %d (stats %+v)", parallel, st.Deduped(), want, st)
		}
		for _, gr := range out {
			if !reflect.DeepEqual(gr.Cells[0], gr.Cells[2]) {
				t.Fatalf("parallel=%d: %s duplicate cells diverged", parallel, gr.Workload)
			}
		}
	}
}

// TestCellCacheRoundTrip pins the cross-runner contract: a cell computed
// by one Runner is served — bit-identical — to a fresh Runner sharing
// the store, without simulating.
func TestCellCacheRoundTrip(t *testing.T) {
	store, err := cellcache.New("")
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(gridCfg(1))
	r1.AttachCellCache(store)
	want, err := r1.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if st := r1.CellStats(); st.CacheMisses == 0 || st.Simulated == 0 {
		t.Fatalf("cold runner stats %+v; want a miss and a simulation", st)
	}

	r2 := NewRunner(gridCfg(1))
	r2.AttachCellCache(store)
	got, err := r2.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached result diverged:\nwant %+v\ngot  %+v", want, got)
	}
	st := r2.CellStats()
	if st.CacheHits == 0 || st.Simulated != 0 {
		t.Fatalf("warm runner stats %+v; want a hit and no simulation", st)
	}
}

// TestCellCacheSchemaBump pins the invalidation mechanism: an entry
// written under a previous SchemaVersion — even a perfectly valid one —
// is invisible to the current runner, which recomputes.
func TestCellCacheSchemaBump(t *testing.T) {
	store, err := cellcache.New("")
	if err != nil {
		t.Fatal(err)
	}
	// Produce a genuine result and store it under the *previous*
	// generation's key, simulating a cache populated before a bump.
	r1 := NewRunner(gridCfg(1))
	run, err := r1.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	oldKey, err := r1.cellKeyAt("aqua-cell-v0", "xz", SchemeAquaMemMapped, 1000, false)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	store.Put(oldKey, data)

	r2 := NewRunner(gridCfg(1))
	r2.AttachCellCache(store)
	got, err := r2.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	st := r2.CellStats()
	if st.CacheHits != 0 || st.Simulated != 1 {
		t.Fatalf("stats %+v; a stale-generation entry must be a miss, not a hit", st)
	}
	if !reflect.DeepEqual(got, run) {
		t.Fatal("recomputed result diverged from the original")
	}
}

// TestCellCacheCorruptEntry pins the corruption contract end to end: a
// cell whose on-disk entry is torn or tampered with is recomputed —
// silently, correctly — never served wrong and never surfaced as an
// error.
func TestCellCacheCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	s1, err := cellcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(gridCfg(1))
	r1.AttachCellCache(s1)
	want, err := r1.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := r1.CellKey("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, hash), []byte("torn garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := cellcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(gridCfg(1))
	r2.AttachCellCache(s2)
	got, err := r2.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recomputed result diverged after corruption")
	}
	if st := r2.CellStats(); st.CacheHits != 0 || st.Simulated != 1 {
		t.Fatalf("stats %+v; corrupt entry must read as a miss", st)
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Fatalf("store stats %+v; want the corruption counted", st)
	}
}

// TestCellCachePayloadMismatch pins the sim-layer identity check above
// the store's checksum: a checksum-valid entry whose decoded identity
// doesn't match the requested cell is discarded, not served.
func TestCellCachePayloadMismatch(t *testing.T) {
	store, err := cellcache.New("")
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRunner(gridCfg(1))
	wrong, err := r1.Run("wrf", SchemeRRS, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// A different cell's (valid) payload planted under xz/aqua's key.
	hash, err := r1.CellKey("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(wrong)
	if err != nil {
		t.Fatal(err)
	}
	store.Put(hash, data)

	r2 := NewRunner(gridCfg(1))
	r2.AttachCellCache(store)
	got, err := r2.Run("xz", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != "xz" || got.Scheme != SchemeAquaMemMapped {
		t.Fatalf("served a foreign cell: %s/%s", got.Workload, got.Scheme)
	}
	if st := r2.CellStats(); st.CacheHits != 0 || st.Simulated != 1 {
		t.Fatalf("stats %+v; mismatched payload must be a miss", st)
	}
}

// TestFaultedCellNeverCached pins the fault-injection exclusion: a cell
// matched by a fault rule bypasses the cache on every request — its
// results are never stored, and repeat requests re-simulate so injected
// behaviour is observed each time.
func TestFaultedCellNeverCached(t *testing.T) {
	rules, err := fault.ParseRules("lbm/aqua-memmapped/125=rqa-overflow@p:1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := gridCfg(1)
	cfg.Faults = rules
	store, err := cellcache.New("")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(cfg)
	r.AttachCellCache(store)
	first, err := r.Run("lbm", SchemeAquaMemMapped, 125)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run("lbm", SchemeAquaMemMapped, 125)
	if err != nil {
		t.Fatal(err)
	}
	if first.Result.FaultStats.Injected == 0 || second.Result.FaultStats.Injected == 0 {
		t.Fatalf("injected faults not observed (first %d, second %d)",
			first.Result.FaultStats.Injected, second.Result.FaultStats.Injected)
	}
	if st := store.Stats(); st.Puts != 0 {
		t.Fatalf("store stats %+v; a faulted cell was cached", st)
	}
	if st := r.CellStats(); st.Requests != 0 {
		t.Fatalf("cell stats %+v; faulted requests must bypass cache accounting", st)
	}
	// The unmatched cell of the same run still caches normally.
	if _, err := r.Run("wrf", SchemeRRS, 1000); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Puts == 0 {
		t.Fatalf("store stats %+v; the clean cell should have been stored", st)
	}
}

// TestCancelledCellNotCached pins the cancellation exclusion: a cell cut
// short by its context must not leave a partial result in the store.
func TestCancelledCellNotCached(t *testing.T) {
	store, err := cellcache.New("")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(gridCfg(1))
	r.AttachCellCache(store)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunCtx(ctx, "xz", SchemeAquaMemMapped, 1000); err == nil {
		t.Fatal("cancelled cell reported success")
	}
	if st := store.Stats(); st.Puts != 0 {
		t.Fatalf("store stats %+v; a cancelled cell was cached", st)
	}
	if st := r.CellStats(); st.Errors == 0 {
		t.Fatalf("cell stats %+v; the cancelled request was not counted", st)
	}
}

// TestCellKeyDeterminism pins that the key is a pure function of the
// configuration: same config same key, any varied determinant a
// different key, and wall-clock-only knobs (Parallel) no change.
func TestCellKeyDeterminism(t *testing.T) {
	base := gridCfg(1)
	key := func(cfg ExpConfig, name string, scheme Scheme, trh int64) string {
		k, err := NewRunner(cfg).CellKey(name, scheme, trh)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	k0 := key(base, "xz", SchemeAquaMemMapped, 1000)
	if k0 != key(base, "xz", SchemeAquaMemMapped, 1000) {
		t.Fatal("same configuration produced different keys")
	}
	if k0 != key(gridCfg(8), "xz", SchemeAquaMemMapped, 1000) {
		t.Fatal("Parallel changed the key; it must not (wall-clock only)")
	}
	variants := map[string]string{
		"scheme":   key(base, "xz", SchemeRRS, 1000),
		"trh":      key(base, "xz", SchemeAquaMemMapped, 2000),
		"workload": key(base, "wrf", SchemeAquaMemMapped, 1000),
	}
	seed := base
	seed.Seed = 7
	variants["seed"] = key(seed, "xz", SchemeAquaMemMapped, 1000)
	window := base
	window.Window = 2 * base.Window
	variants["window"] = key(window, "xz", SchemeAquaMemMapped, 1000)
	seen := map[string]string{k0: "base"}
	for what, k := range variants {
		if prior, dup := seen[k]; dup {
			t.Fatalf("varying %s collided with %s", what, prior)
		}
		seen[k] = what
	}
}
