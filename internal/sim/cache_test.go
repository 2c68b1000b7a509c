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
	"repro/internal/dram"
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

// TestPrecomputeDedupSimulatesOnce pins the no-cache dedup guarantee:
// identical cells inside one grid — whether requested sequentially
// (serial) or concurrently (parallel) — simulate exactly once, and the
// duplicate requests are answered from the same completed execution.
func TestPrecomputeDedupSimulatesOnce(t *testing.T) {
	cells := withBaseline(dupCells)
	for _, parallel := range []int{1, 4} {
		r := NewRunner(gridCfg(parallel))
		if err := r.Precompute(context.Background(), gridNames, cells); err != nil {
			t.Fatal(err)
		}
		// Per workload: 3 requested cells + the baseline cell, of which
		// the repeated aqua cell is a duplicate -> 3 unique simulations.
		st := r.CellStats()
		wantRequests := int64(len(gridNames) * len(cells))
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
		for i, row := range gridOf(t, r, gridNames, dupCells) {
			if !reflect.DeepEqual(row[0], row[2]) {
				t.Fatalf("parallel=%d: %s duplicate cells diverged", parallel, gridNames[i])
			}
		}
	}
}

// cellKinds is one cell of each kind: plain, Section V-F variant, Table
// II tiers and Section VI-C co-run.
var cellKinds = []GridCell{{Scheme: SchemeAquaMemMapped, TRH: 1000}, bloomCell, tierCell, coRunCell}

// TestCellCacheRoundTrip pins the cross-runner contract for every kind of
// cell: a cell computed by one Runner is served — bit-identical — to a
// fresh Runner sharing the store, without simulating or building a
// system.
func TestCellCacheRoundTrip(t *testing.T) {
	for _, cell := range cellKinds {
		label := cellLabel("xz", cell.Scheme, cell.TRH, cell.Variant.String())
		store := storeAt(t, t.TempDir())
		r1 := NewRunner(gridCfg(1))
		r1.AttachCellCache(store)
		want, err := r1.RunCtx(context.Background(), "xz", cell)
		if err != nil {
			t.Fatal(err)
		}
		if st := r1.CellStats(); st.CacheMisses == 0 || st.Simulated == 0 {
			t.Fatalf("%s: cold runner stats %+v; want a miss and a simulation", label, st)
		}

		r2 := NewRunner(gridCfg(1))
		r2.AttachCellCache(store)
		got, err := r2.RunCtx(context.Background(), "xz", cell)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cached result diverged:\nwant %+v\ngot  %+v", label, want, got)
		}
		st := r2.CellStats()
		if st.CacheHits == 0 || st.Simulated != 0 || st.TraceCaptures+st.TraceReplays != 0 {
			t.Fatalf("%s: warm runner stats %+v; want a hit and no simulation or stream", label, st)
		}
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
	oldKey, err := r1.cellKeyAt("aqua-cell-v0", cellKey{"xz", GridCell{Scheme: SchemeAquaMemMapped, TRH: 1000}}, false)
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

	// A plain cell's payload planted under a variant key or a tier key
	// names the same workload, scheme and threshold, but not the variant;
	// labelled as a tier payload, it still lacks the counts.
	base, err := r1.Run("xz", SchemeBaseline, 1000)
	if err != nil {
		t.Fatal(err)
	}
	labelled := base
	labelled.Variant = tierCell.Variant.String()
	for _, plant := range []struct {
		cell GridCell
		run  WorkloadRun
	}{{bloomCell, got}, {tierCell, base}, {tierCell, labelled}} {
		hash, err := r1.cellKeyAt(SchemaVersion, cellKey{"xz", plant.cell}, false)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(plant.run)
		if err != nil {
			t.Fatal(err)
		}
		store.Put(hash, data)
		r3 := NewRunner(gridCfg(1))
		r3.AttachCellCache(store)
		got, err := r3.RunCtx(context.Background(), "xz", plant.cell)
		if err != nil {
			t.Fatal(err)
		}
		if got.Variant != plant.cell.Variant.String() {
			t.Fatalf("served a %q payload for variant %q", got.Variant, plant.cell.Variant)
		}
		if st := r3.CellStats(); st.CacheHits != 0 || st.Simulated != 1 {
			t.Fatalf("%s payload under %s: stats %+v; mismatched payload must be a miss", plant.run.Label(), plant.cell.Variant, st)
		}
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

// TestCancelledCellNotCached pins the cancellation exclusion for every
// kind of cell: a cell cut short by its context, before it starts or in
// the middle of its run, returns context.Canceled and leaves nothing in
// the store or the memo.
func TestCancelledCellNotCached(t *testing.T) {
	store := storeAt(t, t.TempDir())
	// A window several ctx-check strides long, so every cell's run
	// crosses one.
	r := NewRunner(ExpConfig{Window: 500 * dram.Microsecond, Parallel: 1})
	r.AttachCellCache(store)
	// Resolve the baseline first, so each cell's first system is its own.
	if _, err := r.Run("xz", SchemeBaseline, 1000); err != nil {
		t.Fatal(err)
	}
	puts := store.Stats().Puts
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	for _, cell := range cellKinds {
		label := cellLabel("xz", cell.Scheme, cell.TRH, cell.Variant.String())
		if _, err := r.RunCtx(pre, "xz", cell); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled cell returned %v, want context.Canceled", label, err)
		}
		// The singleflight polls once before the cell starts and the
		// run once at its first event; the third poll is the first
		// stride boundary, mid-run.
		mid := &countingCtx{Context: context.Background(), cancelAt: 3}
		if _, err := r.RunCtx(mid, "xz", cell); !errors.Is(err, context.Canceled) || mid.calls != 3 {
			t.Errorf("%s: mid-run cancellation returned %v after %d polls, want context.Canceled after 3", label, err, mid.calls)
		}
	}
	if st := store.Stats(); st.Puts != puts {
		t.Fatalf("store stats %+v; a cancelled cell was cached", st)
	}
	if st := r.CellStats(); st.Errors != 2*int64(len(cellKinds)) {
		t.Fatalf("cell stats %+v; want all %d cancelled requests counted", st, 2*len(cellKinds))
	}
	if n := len(r.Cells()); n != 1 {
		t.Fatalf("memo holds %d cells; want only the baseline", n)
	}
}

// TestThresholdBelowTwoFailsBeforeCache: a T_RH below 2 fails as a
// CellError carrying the cell's identity, without simulating or writing
// anything under the bad key.
func TestThresholdBelowTwoFailsBeforeCache(t *testing.T) {
	store := storeAt(t, t.TempDir())
	r := NewRunner(gridCfg(1))
	r.AttachCellCache(store)
	for _, trh := range []int64{0, 1, -5} {
		_, err := r.Run("xz", SchemeAquaMemMapped, trh)
		var ce *CellError
		if !errors.As(err, &ce) || ce.TRH != trh || ce.Workload != "xz" {
			t.Errorf("T_RH %d: err = %v, want a CellError for xz/aqua-memmapped/%d", trh, err, trh)
		}
	}
	if st := r.CellStats(); st.Simulated != 0 {
		t.Fatalf("cell stats %+v; a bad threshold simulated", st)
	}
	if st := store.Stats(); st.Puts != 0 {
		t.Fatalf("store stats %+v; a bad threshold was cached", st)
	}
	if len(r.Cells()) != 0 {
		t.Fatal("a bad threshold was memoized")
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
