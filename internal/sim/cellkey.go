package sim

// Content-addressed result caching (see DESIGN.md "Result cache &
// incremental recomputation"). Every grid cell and every calibrated IPC
// is a pure function of the experiment configuration, so its result can
// be stored under a hash of that configuration and served on any later
// run. The store is the only persistence layer: resuming an interrupted
// run means rerunning it against the same cache directory.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cellcache"
	"repro/internal/dram"
)

// SchemaVersion names the generation of simulation semantics that cached
// cell results belong to. Bump it whenever a change alters any simulated
// number — timing model, scheme behaviour, workload synthesis, the
// request-budget formula — and every previously written entry hashes to
// a key no runner will ever ask for again: stale results cannot be
// served, only ignored.
const SchemaVersion = "aqua-cell-v1"

// cellKey identifies one cell within a Runner.
type cellKey struct {
	workload string
	cell     GridCell
}

// fail wraps a cell failure with the cell's identity.
func (k cellKey) fail(err error) *CellError {
	c := k.cell
	return &CellError{Workload: k.workload, Scheme: c.Scheme, TRH: c.TRH, Variant: c.Variant.String(), Err: err}
}

// CellKey returns the content-addressed cache key for one grid cell: a
// SHA-256 over the schema version, every ExpConfig field that determines
// simulated numbers (window, seed, calibration), the fixed Table I
// system every cell runs on (cores, geometry, timing), the cell
// identity, the per-core workload specs with their static request
// budgets, and the canonical fault rules and non-zero Variant when there
// are any. Parallel is excluded: it changes wall-clock only, never
// results.
//
// The rules are hashed whole, not just the ones matching the cell: a rule
// on a workload's baseline cell reaches its calibration and baseline
// passes, and so every cell of that workload. A run under rules therefore
// never shares an entry with a fault-free run, whose key text carries no
// faults line at all.
//
// The request budget is recorded at nominal IPC 1.0. The calibrated
// budget scales with the measured baseline IPC, which is itself a
// deterministic function of everything already hashed, so the static
// budget pins it transitively, as it pins a co-run's shorter budget.
func (r *Runner) CellKey(name string, scheme Scheme, trh int64) (string, error) {
	return r.cellKeyAt(SchemaVersion, cellKey{name, GridCell{Scheme: scheme, TRH: trh}}, false)
}

// ipcKey is the store key of a workload's calibrated IPC. The calibration
// pass is the baseline cell run at nominal IPC 1.0 — exactly the inputs
// the baseline cell's key text records — so the IPC key hashes that text
// plus an "ipc" line, which no cell key text contains.
func (r *Runner) ipcKey(name string) (string, error) {
	return r.cellKeyAt(SchemaVersion, cellKey{name, baselineCell}, true)
}

// cellKeyAt is a cell's key under an explicit schema version (tests derive
// old-generation keys with it to prove a bump invalidates); ipc selects
// the workload's calibrated-IPC entry instead of the cell's result.
//
// The aquakey:hash annotation is the keycoverage analyzer's contract:
// every field of ExpConfig, workload.Spec and Variant must be hashed
// below or carry an //aquakey:exclude on its declaration.
//
//aquakey:hash ExpConfig workload.Spec Variant
func (r *Runner) cellKeyAt(version string, key cellKey, ipc bool) (string, error) {
	specs, err := caseSpecs(key.workload)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", version)
	fmt.Fprintf(&b, "window=%d cores=%d seed=%#x calibrate=%t\n",
		r.cfg.Window, paperCores, r.cfg.Seed, r.cfg.Calibrate)
	fmt.Fprintf(&b, "geom=%+v\n", dram.Baseline())
	fmt.Fprintf(&b, "timing=%+v\n", dram.DDR4())
	fmt.Fprintf(&b, "cell=%s/%s/%d\n", key.workload, key.cell.Scheme, key.cell.TRH)
	for i := 0; i < paperCores && i < len(specs); i++ {
		sp := specs[i]
		fmt.Fprintf(&b, "core%d spec=%s mpki=%g rows=%d/%d/%d budget=%d\n",
			i, sp.Name, sp.MPKI, sp.Rows166, sp.Rows500, sp.Rows1K,
			requestBudget(r.cfg.Window, 1.0, sp.MPKI))
	}
	if faults := r.cfg.Faults.String(); faults != "" {
		fmt.Fprintf(&b, "faults=%s\n", faults)
	}
	if v := key.cell.Variant; v != (Variant{}) {
		fmt.Fprintf(&b, "variant=%s\n", v)
	}
	if ipc {
		b.WriteString("ipc\n")
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}

// AttachCellCache attaches a content-addressed store: completed cells
// and calibrated IPCs are served from it without simulating and written
// back to it as they complete. Results computed under fault rules are
// keyed by those rules; failed and cancelled cells never enter the
// store. Pass nil to detach.
func (r *Runner) AttachCellCache(s *cellcache.Store) { r.cells = s }

// CellStats summarizes how RunCtx requests were satisfied, for cells of
// every kind. Every request counts, so a renderer re-reading a cell adds
// a Request served by the memo (Deduped); calibration and the measured
// baseline are uncounted inputs. Every system a Runner builds replays its
// streams, so TraceCaptures+TraceReplays == 0 means none was built.
type CellStats struct {
	// Requests is the number of RunCtx cell requests.
	Requests int64
	// CacheHits were served from the attached content-addressed cache.
	CacheHits int64
	// CacheMisses consulted the attached cache and missed.
	CacheMisses int64
	// Simulated cells were actually run.
	Simulated int64
	// Errors is the number of requests that failed.
	Errors int64
	// TraceCaptures counts workload core-streams generated once and
	// packed into the capture/replay tier (tracetier.go), including
	// captures that ran over budget and were served uncached.
	TraceCaptures int64
	// TraceReplays counts core-streams served by replaying a captured
	// trace instead of running the generator — every stream build after
	// a workload's first touch.
	TraceReplays int64
}

// Deduped is the number of requests served from an identical cell
// already resolved in this run — the in-memory memo or a coalesced
// in-flight execution — rather than from the cache or a fresh
// simulation.
func (s CellStats) Deduped() int64 {
	d := s.Requests - s.CacheHits - s.Simulated - s.Errors
	if d < 0 {
		d = 0
	}
	return d
}

// CellStats returns a snapshot of the Runner's cell-request counters.
func (r *Runner) CellStats() CellStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cellStats
}

// ipcEntry is the stored form of a workload's calibrated IPC.
type ipcEntry struct {
	Workload string
	IPC      float64
}

// storeGet decodes the entry stored under hash into v. A missing or
// undecodable entry reads as a miss, never an error.
func (r *Runner) storeGet(hash string, v any) bool {
	data, ok := r.cells.Get(hash)
	return ok && json.Unmarshal(data, v) == nil
}

// storePut writes v under hash. encoding/json round-trips float64
// exactly, so a later run serving the entry renders the same bytes an
// uncached run would.
func (r *Runner) storePut(hash string, v any) {
	if data, err := json.Marshal(v); err == nil {
		r.cells.Put(hash, data)
	}
}

// cacheLookup decodes a stored cell. Any defect — undecodable payload,
// identity mismatch, a measurement other than the key's — reads as a
// miss, never an error or a wrong result.
func (r *Runner) cacheLookup(key cellKey) (WorkloadRun, bool) {
	hash, err := r.cellKeyAt(SchemaVersion, key, false)
	var run WorkloadRun
	if err != nil || !r.storeGet(hash, &run) {
		return WorkloadRun{}, false
	}
	c := key.cell
	if run.Workload != key.workload || run.Scheme != c.Scheme || run.TRH != c.TRH ||
		run.Variant != c.Variant.String() ||
		(run.Tiers != nil) != (c.Variant.Measure == MeasureTiers) ||
		(run.CoRun != nil) != (c.Variant.Measure == MeasureCoRun) {
		return WorkloadRun{}, false
	}
	return run, true
}

// cacheStore writes a completed cell.
func (r *Runner) cacheStore(key cellKey, run WorkloadRun) {
	if hash, err := r.cellKeyAt(SchemaVersion, key, false); err == nil {
		r.storePut(hash, run)
	}
}

// cachedIPC reads a workload's calibrated IPC from the store.
func (r *Runner) cachedIPC(name string) (float64, bool) {
	hash, err := r.ipcKey(name)
	var e ipcEntry
	if err != nil || !r.storeGet(hash, &e) || e.Workload != name {
		return 0, false
	}
	return e.IPC, true
}

// storeIPC writes a workload's calibrated IPC.
func (r *Runner) storeIPC(name string, ipc float64) {
	if hash, err := r.ipcKey(name); err == nil {
		r.storePut(hash, ipcEntry{Workload: name, IPC: ipc})
	}
}
