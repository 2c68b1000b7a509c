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

// TestFailedCellNeverStored: a cell that panics fails as a *CellError
// carrying its stack, and is neither memoized nor stored, while a healthy
// variant cell of the same scheme beside it is both. A rerun over the
// same store misses the failed cell and fails again the same way.
func TestFailedCellNeverStored(t *testing.T) {
	cfg := gridCfg(1)
	dir := t.TempDir()
	r := NewRunner(cfg)
	r.AttachCellCache(storeAt(t, dir))
	_, err := r.RunCtx(context.Background(), "xz", badCell)
	checkBadCell(t, err, "xz")
	good := cellOf(t, r, "xz", bloomCell)
	stored := func(cell GridCell) bool {
		t.Helper()
		key, err := r.cellKeyAt(SchemaVersion, cellKey{"xz", cell}, false)
		if err != nil {
			t.Fatal(err)
		}
		_, err = os.Stat(filepath.Join(dir, key))
		return err == nil
	}
	if stored(badCell) || !stored(bloomCell) {
		t.Fatalf("store holds the failed cell: %v, the healthy one: %v; want only the healthy one", stored(badCell), stored(bloomCell))
	}
	if cells := r.Cells(); len(cells) != 1 || !reflect.DeepEqual(cells[0], good) {
		t.Fatalf("memo holds %d cells; want only the healthy variant cell", len(cells))
	}

	rerun := NewRunner(cfg)
	rerun.AttachCellCache(storeAt(t, dir))
	_, err = rerun.RunCtx(context.Background(), "xz", badCell)
	checkBadCell(t, err, "xz")
	if st := rerun.CellStats(); st.CacheMisses != 1 || st.Errors != 1 || st.Simulated != 0 {
		t.Fatalf("rerun stats %+v; want the failed cell to miss the store and fail again", st)
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

// keyExempt lists the fields that must not reach a cell's key, each with
// its reason. Every other field of ExpConfig, workload.Spec and GridCell
// must change the key text.
var keyExempt = map[string]string{
	"ExpConfig.Parallel": "concurrency width changes wall-clock only; results are read back in canonical order",
}

// TestCellKeyDeterminism pins that the key is a pure function of the
// configuration that covers all of it. The same inputs give the same
// key. Changing any one field of ExpConfig, of a core's workload.Spec or
// of the GridCell changes the key text, unless keyExempt lists the
// field, which must then leave the text alone. The cell's Variant starts
// non-zero, so a Variant field that Variant.String leaves out shows as
// an unchanged variant= line.
func TestCellKeyDeterminism(t *testing.T) {
	base := gridCfg(1)
	k0 := keyOf(t, base, "xz", SchemeAquaMemMapped, 1000)
	if k0 != keyOf(t, base, "xz", SchemeAquaMemMapped, 1000) {
		t.Fatal("same configuration produced different keys")
	}
	if k0 == keyOf(t, base, "wrf", SchemeAquaMemMapped, 1000) {
		t.Fatal("two workloads share a key")
	}

	cfg := base
	specs, err := caseSpecs("xz")
	if err != nil {
		t.Fatal(err)
	}
	cell := GridCell{Scheme: SchemeAquaMemMapped, TRH: 1000, Variant: Variant{BloomGroupSize: 16}}
	text := func() string { return cellKeyText(SchemaVersion, cfg, "xz", specs, cell, false) }
	want := text()
	keyed := func(field string) {
		got := text()
		if reason, exempt := keyExempt[field]; exempt {
			if got != want {
				t.Errorf("changing %s changed the key text; it must not: %s", field, reason)
			}
		} else if got == want {
			t.Errorf("changing %s left the key text unchanged, so configurations differing only there share a cached result", field)
		}
	}
	varyFields(t, "ExpConfig", reflect.ValueOf(&cfg).Elem(), keyed)
	varyFields(t, "workload.Spec", reflect.ValueOf(&specs[0]).Elem(), keyed)
	varyFields(t, "GridCell", reflect.ValueOf(&cell).Elem(), keyed)
}

// varyFields changes each field under the struct v in turn, recursing
// into struct fields: ints +1, floats doubled (set to 1 when zero), bools
// flipped and strings suffixed. It calls keyed with the field's path
// after each change, then restores the field. A field the walk cannot
// change fails the test.
func varyFields(t *testing.T, path string, v reflect.Value, keyed func(field string)) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+"."+v.Type().Field(i).Name
		if !f.CanSet() {
			t.Errorf("%s is unexported; the walk cannot change it", name)
			continue
		}
		old := reflect.New(f.Type()).Elem()
		old.Set(f)
		switch f.Kind() {
		case reflect.Struct:
			varyFields(t, name, f, keyed)
			continue
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			if f.Float() == 0 {
				f.SetFloat(1)
			} else {
				f.SetFloat(2 * f.Float())
			}
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.String:
			f.SetString(f.String() + "x")
		default:
			t.Errorf("%s: the walk cannot change a %s; extend varyFields", name, f.Type())
			continue
		}
		keyed(name)
		f.Set(old)
	}
}
