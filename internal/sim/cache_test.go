package sim

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cellcache"
)

// storeAt opens a store over dir, failing the test on error.
func storeAt(t *testing.T, dir string) *cellcache.Store {
	t.Helper()
	s, err := cellcache.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// keyOf is cfg's cell key for one cell, failing the test on error.
func keyOf(t *testing.T, cfg ExpConfig, name string, scheme Scheme, trh int64) string {
	t.Helper()
	k, err := NewRunner(cfg).CellKey(name, scheme, trh)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

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
	store := storeAt(t, t.TempDir())
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
	store := storeAt(t, t.TempDir())
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
	s1 := storeAt(t, dir)
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

	s2 := storeAt(t, dir)
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
	store := storeAt(t, t.TempDir())
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

// TestFaultedCellStoredUnderRules pins how a fault-matched cell takes
// the one path every cell takes: it is memoized and stored under a key
// that hashes the rules, so a rerun with the same rules is served it with
// its injected faults intact, while a Runner without rules over the same
// directory takes no hits. A panicking cell still fails as a *CellError
// carrying its stack and is never stored.
func TestFaultedCellStoredUnderRules(t *testing.T) {
	faulted := gridCfg(1)
	faulted.Faults = mustRules(t, "lbm/aqua-memmapped/125=rqa-overflow@p:1;xz/rrs/1000=panic@once:0")
	dir := t.TempDir()
	stored := func(hash string) bool {
		_, err := os.Stat(filepath.Join(dir, hash))
		return err == nil
	}

	r := NewRunner(faulted)
	r.AttachCellCache(storeAt(t, dir))
	first, err := r.Run("lbm", SchemeAquaMemMapped, 125)
	if err != nil {
		t.Fatal(err)
	}
	if first.Result.FaultStats.Injected == 0 {
		t.Fatal("injected faults not observed")
	}
	again, err := r.Run("lbm", SchemeAquaMemMapped, 125)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatal("memoized faulted cell diverged")
	}
	if st := r.CellStats(); st.Requests != 2 || st.Simulated != 1 || st.Deduped() != 1 {
		t.Fatalf("cell stats %+v; want the faulted cell simulated once and then served by the memo", st)
	}
	ruled := keyOf(t, faulted, "lbm", SchemeAquaMemMapped, 125)
	if ruled == keyOf(t, gridCfg(1), "lbm", SchemeAquaMemMapped, 125) {
		t.Fatal("the cell key does not hash the fault rules")
	}
	if !stored(ruled) {
		t.Fatal("the faulted cell was not stored under its rules-keyed entry")
	}

	_, err = r.Run("xz", SchemeRRS, 1000)
	var ce *CellError
	if !errors.As(err, &ce) || len(ce.Stack) == 0 {
		t.Fatalf("panicking cell returned %v, want a *CellError with a stack", err)
	}
	if stored(keyOf(t, faulted, "xz", SchemeRRS, 1000)) {
		t.Fatal("a panicking cell was stored")
	}
	if cells := r.Cells(); len(cells) != 1 || !reflect.DeepEqual(cells[0], first) {
		t.Fatalf("memo holds %d cells; want only the faulted lbm cell", len(cells))
	}

	rerun := NewRunner(faulted)
	rerun.AttachCellCache(storeAt(t, dir))
	got, err := rerun.Run("lbm", SchemeAquaMemMapped, 125)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, first) {
		t.Fatalf("rerun served a different cell:\ngot  %+v\nwant %+v", got.Result.FaultStats, first.Result.FaultStats)
	}
	if st := rerun.CellStats(); st.CacheHits != 1 || st.Simulated != 0 {
		t.Fatalf("rerun stats %+v; want the faulted cell served from the store", st)
	}

	store := storeAt(t, dir)
	clean := NewRunner(gridCfg(1))
	clean.AttachCellCache(store)
	if _, err := clean.Run("lbm", SchemeAquaMemMapped, 125); err != nil {
		t.Fatal(err)
	}
	if hits := store.Stats().DiskHits; clean.CellStats().CacheHits != 0 || hits != 0 {
		t.Fatalf("fault-free runner took %d cell hits and %d store hits, want 0", clean.CellStats().CacheHits, hits)
	}
}

// TestFaultRulesNeverPoisonCleanKeys: a rule on a workload's baseline
// cell shifts its calibrated IPC and baseline, and through them every
// cell of the workload, matched or not. A fault-free Runner over the
// directory such a run filled must still return exactly what a fresh
// fault-free run computes.
func TestFaultRulesNeverPoisonCleanKeys(t *testing.T) {
	dir := t.TempDir()
	cfg := resCfg(mustRules(t, "lbm/baseline/1000=ecc-flip@p:0.05"))
	cfg.Calibrate = true
	faulted := NewRunner(cfg)
	faulted.AttachCellCache(storeAt(t, dir))
	base, err := faulted.Run("lbm", SchemeBaseline, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if base.Result.FaultStats.Injected == 0 {
		t.Fatal("the baseline rule never fired")
	}
	if _, err := faulted.Run("lbm", SchemeAquaMemMapped, 1000); err != nil {
		t.Fatal(err)
	}

	cleanCfg := resCfg(nil)
	cleanCfg.Calibrate = true
	want, err := NewRunner(cleanCfg).Run("lbm", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(cleanCfg)
	r.AttachCellCache(storeAt(t, dir))
	got, err := r.Run("lbm", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fault-free runner was served a faulted result: NormIPC %v, a fresh run gives %v", got.NormIPC, want.NormIPC)
	}
}

// TestFaultFreeKeysPinned pins fault-free keys to their committed
// values, so cache directories written by earlier builds keep serving.
// A change to the key text must bump SchemaVersion and this test with it.
func TestFaultFreeKeysPinned(t *testing.T) {
	r := NewRunner(ExpConfig{Calibrate: true})
	cell, err := r.CellKey("lbm", SchemeAquaMemMapped, 1000)
	if err != nil {
		t.Fatal(err)
	}
	ipc, err := r.ipcKey("lbm")
	if err != nil {
		t.Fatal(err)
	}
	if want := "1309cef9e45d7276f4812f9843e1b26cdf6214fa2bdb36ca2ef712d884a06269"; cell != want {
		t.Errorf("CellKey(lbm, aqua-memmapped, 1000) = %s, want %s", cell, want)
	}
	if want := "b7b548f7f477ae2cb635a520f4cea4afcdd091eccb0dbbca0fcc79d1fe2578e4"; ipc != want {
		t.Errorf("ipcKey(lbm) = %s, want %s", ipc, want)
	}
}

// TestCancelledCellNotCached pins the cancellation exclusion: a cell cut
// short by its context must not leave a partial result in the store.
func TestCancelledCellNotCached(t *testing.T) {
	store := storeAt(t, t.TempDir())
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
	k0 := keyOf(t, base, "xz", SchemeAquaMemMapped, 1000)
	if k0 != keyOf(t, base, "xz", SchemeAquaMemMapped, 1000) {
		t.Fatal("same configuration produced different keys")
	}
	if k0 != keyOf(t, gridCfg(8), "xz", SchemeAquaMemMapped, 1000) {
		t.Fatal("Parallel changed the key; it must not (wall-clock only)")
	}
	variants := map[string]string{
		"scheme":   keyOf(t, base, "xz", SchemeRRS, 1000),
		"trh":      keyOf(t, base, "xz", SchemeAquaMemMapped, 2000),
		"workload": keyOf(t, base, "wrf", SchemeAquaMemMapped, 1000),
	}
	seed := base
	seed.Seed = 7
	variants["seed"] = keyOf(t, seed, "xz", SchemeAquaMemMapped, 1000)
	window := base
	window.Window = 2 * base.Window
	variants["window"] = keyOf(t, window, "xz", SchemeAquaMemMapped, 1000)
	// Rules change every key, even of a cell no rule matches.
	faults := base
	faults.Faults = mustRules(t, "wrf/rrs/1000=panic@once:0")
	variants["faults"] = keyOf(t, faults, "xz", SchemeAquaMemMapped, 1000)
	seen := map[string]string{k0: "base"}
	for what, k := range variants {
		if prior, dup := seen[k]; dup {
			t.Fatalf("varying %s collided with %s", what, prior)
		}
		seen[k] = what
	}
}
