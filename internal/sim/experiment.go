package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/cellcache"
	"repro/internal/cpu"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/flight"
	"repro/internal/mitigation"
	"repro/internal/rng"
	"repro/internal/rowmap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ExpConfig parameterizes the figure-regeneration experiments.
type ExpConfig struct {
	// Window is the simulated measurement window (default one refresh
	// window, 64ms, matching the paper's per-64ms metrics).
	Window dram.PS
	// Cores (default 4).
	Cores int
	// Seed for workload and scheme randomization.
	Seed uint64
	// Calibrate runs a baseline pass first and regenerates streams with
	// the measured IPC so hot rows hit their Table II activation targets
	// within real time (default true; see DESIGN.md).
	Calibrate bool
	// Parallel bounds how many grid cells simulate concurrently (0 =
	// GOMAXPROCS, 1 = serial). Each cell builds a fully isolated system,
	// and results are collected by cell index, so the value changes
	// wall-clock only — never the numbers (see DESIGN.md "Concurrency
	// model").
	//aquakey:exclude concurrency width changes wall-clock only; results are collected by index
	Parallel int
	// Geometry/Timing override the baseline system.
	Geometry dram.Geometry
	Timing   dram.Timing
	// Faults maps grid cells to injected fault plans (see fault.ParseRules
	// for the grammar). Nil means no faults anywhere. The cell-level kind
	// ("panic") fires before the simulation is built; hardware kinds are
	// threaded through the system layers. Non-empty rules are hashed into
	// every cell and IPC key (see cellKeyAt).
	Faults *fault.Rules
	// DisableTraceReplay turns off the record-once/replay-many stream
	// tier (see tracetier.go): every cell regenerates its workload
	// streams from the generator instead of replaying a captured trace.
	// Replay is byte-identical to generation — captures carry addresses
	// and instruction gaps, never timestamps — so the flag changes
	// wall-clock only; it exists for the replay-vs-generate equivalence
	// gate (make trace-smoke).
	//aquakey:exclude replay is byte-identical to generation (equivalence gate: make trace-smoke); the tier changes wall-clock only
	DisableTraceReplay bool
}

func (e *ExpConfig) fillDefaults() {
	if e.Window == 0 {
		e.Window = 64 * dram.Millisecond
	}
	if e.Cores == 0 {
		e.Cores = 4
	}
	if e.Geometry == (dram.Geometry{}) {
		e.Geometry = dram.Baseline()
	}
	if e.Timing == (dram.Timing{}) {
		e.Timing = dram.DDR4()
	}
	if e.Seed == 0 {
		e.Seed = 0x41515541 // "AQUA"
	}
	if e.Parallel <= 0 {
		e.Parallel = runtime.GOMAXPROCS(0)
	}
}

// validate rejects configurations no cell could run under. It operates on
// an already-defaulted config (NewRunner calls fillDefaults first).
func (e *ExpConfig) validate() error {
	if e.Window < 0 {
		return fmt.Errorf("sim: negative window %d", e.Window)
	}
	if e.Cores < 1 || e.Cores > 4 {
		return fmt.Errorf("sim: cores must be 1..4, got %d", e.Cores)
	}
	if err := e.Geometry.Validate(); err != nil {
		return err
	}
	return e.Timing.Validate()
}

// WorkloadRun is one (workload, scheme) measurement.
type WorkloadRun struct {
	Workload string
	Scheme   Scheme
	TRH      int64
	Result   Result
	// NormIPC is IPC relative to the unprotected baseline of the same
	// workload (1.0 = no slowdown).
	NormIPC float64
}

// Runner executes workload x scheme grids with shared calibration. A
// Runner is safe for concurrent use: the per-workload calibration and
// baseline measurement are cached under a mutex and deduplicated with
// singleflight semantics, so concurrent cells wanting the same workload
// block on one shared pass instead of repeating it, while each cell's
// own simulation runs on a fully isolated system build.
type Runner struct {
	cfg ExpConfig
	// region is the software-visible address region, fixed for the
	// Runner's geometry/timing and shared by every stream build.
	region workload.Region
	// initErr records a construction failure (bad config, geometry the
	// AQUA layout cannot host). A Runner with initErr set is inert: every
	// cell it is asked to run fails with a CellError wrapping initErr
	// instead of crashing the process.
	initErr error
	// cells, when attached, is the content-addressed result cache (see
	// cellkey.go): completed cells and calibrated IPCs are served from it
	// across processes and written back to it. Nil means no cache.
	cells *cellcache.Store
	// traceBudget bounds the in-memory trace tier's bytes: always
	// traceBudgetBytes, except in in-package tests that lower it to
	// exercise the over-budget path.
	traceBudget int64

	mu sync.Mutex
	// calibrated per-workload IPC from the baseline pass.
	ipcCache map[string]float64 // guarded by mu
	// measured baseline results, keyed by workload (the baseline run
	// depends only on the workload and its calibrated IPC, not on the
	// scheme or threshold being compared against).
	baseCache map[string]Result // guarded by mu
	// genCache shares workload generators across grid cells. A generator
	// is a pure function of (spec, core, nominal IPC) under the Runner's
	// fixed region/seed/params and is immutable once built, so every cell
	// of a workload can draw fresh streams from one shared instance
	// instead of re-deriving the hot-row placement and background set.
	genCache map[genKey]*workload.Generator // guarded by mu
	// traceMem is the in-memory tier of the capture/replay layer
	// (tracetier.go): packed per-core request traces keyed like genCache,
	// replayed by every cell sharing the workload. traceBytes tracks its
	// footprint against the budget.
	traceMem   map[genKey]*trace.Packed // guarded by mu
	traceBytes int64                    // guarded by mu
	// cellMemo memoizes completed cells for the life of the Runner, so
	// identical grid cells (the same baseline repeated at every sweep
	// point) simulate at most once even with no cache attached and even
	// when requested sequentially.
	cellMemo map[cellKey]WorkloadRun // guarded by mu
	// cellStats counts how cacheable cell requests were satisfied.
	cellStats CellStats // guarded by mu

	ipcFlight  flight.Group[string, float64]
	baseFlight flight.Group[string, Result]
	cellFlight flight.Group[cellKey, WorkloadRun]
}

type genKey struct {
	spec    string
	core    int
	nominal float64
}

// NewRunner builds a Runner. It never panics: an invalid configuration
// yields an inert Runner whose cells all fail with a CellError wrapping
// the construction error (use NewRunnerE or Err to see it directly).
func NewRunner(cfg ExpConfig) *Runner {
	cfg.fillDefaults()
	r := &Runner{
		cfg:         cfg,
		traceBudget: traceBudgetBytes,
		ipcCache:    make(map[string]float64),
		baseCache:   make(map[string]Result),
		genCache:    make(map[genKey]*workload.Generator),
		traceMem:    make(map[genKey]*trace.Packed),
		cellMemo:    make(map[cellKey]WorkloadRun),
	}
	if err := cfg.validate(); err != nil {
		r.initErr = err
		return r
	}
	// VisibleRegion walks the AQUA table layout, which rejects geometries
	// it cannot host by panicking; convert that into a construction error.
	r.initErr = flight.Protect(func() error {
		r.region = VisibleRegion(Config{Geometry: cfg.Geometry, Timing: cfg.Timing})
		return nil
	})
	return r
}

// NewRunnerE is NewRunner with the construction error surfaced.
func NewRunnerE(cfg ExpConfig) (*Runner, error) {
	r := NewRunner(cfg)
	return r, r.initErr
}

// Err reports the construction error, if any.
func (r *Runner) Err() error { return r.initErr }

// CellError wraps one grid cell's failure with the cell's identity, so a
// broken cell reads as "cell xz/rrs/1000: ..." in the failure summary
// instead of aborting the whole run.
type CellError struct {
	Workload string
	Scheme   Scheme
	TRH      int64
	// Err is the underlying failure; a recovered panic arrives as a
	// *flight.PanicError.
	Err error
	// Stack is the goroutine stack captured at a recovered panic (nil for
	// ordinary errors).
	Stack []byte
}

// Error implements error.
func (c *CellError) Error() string {
	return fmt.Sprintf("cell %s/%s/%d: %v", c.Workload, c.Scheme, c.TRH, c.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (c *CellError) Unwrap() error { return c.Err }

// GridError aggregates every failed cell of a grid run, in grid order.
// RunGrid returns it alongside the partial grid, which still holds every
// healthy cell's result.
type GridError struct {
	Cells []*CellError
}

// Error implements error.
func (g *GridError) Error() string {
	if len(g.Cells) == 1 {
		return g.Cells[0].Error()
	}
	return fmt.Sprintf("%d cells failed (first: %v)", len(g.Cells), g.Cells[0])
}

// measuredBaseline runs (or returns the cached) baseline measurement for a
// workload at the given nominal IPC. The baseline cell's store entry holds
// this very Result, so it is read before simulating.
func (r *Runner) measuredBaseline(ctx context.Context, name string, nominal float64) (Result, error) {
	r.mu.Lock()
	res, ok := r.baseCache[name]
	r.mu.Unlock()
	if ok {
		return res, nil
	}
	return r.baseFlight.DoCtx(ctx, name, func() (Result, error) {
		// A flight that completed between the cache miss and Do may have
		// already stored the result.
		r.mu.Lock()
		res, ok := r.baseCache[name]
		r.mu.Unlock()
		if ok {
			return res, nil
		}
		if run, ok := r.cacheLookup(cellKey{name, SchemeBaseline, 1000}); ok {
			r.mu.Lock()
			r.baseCache[name] = run.Result
			r.mu.Unlock()
			return run.Result, nil
		}
		res, err := r.runOnce(ctx, name, SchemeBaseline, 1000, nominal)
		if err != nil {
			return Result{}, err
		}
		r.mu.Lock()
		r.baseCache[name] = res
		r.mu.Unlock()
		return res, nil
	})
}

// Config returns the effective experiment configuration.
func (r *Runner) Config() ExpConfig { return r.cfg }

// caseSpecs returns per-core specs for a named case: a rate workload
// (same spec on every core) or a mix.
func caseSpecs(name string) ([]workload.Spec, error) {
	if spec, ok := workload.ByName(name); ok {
		return []workload.Spec{spec, spec, spec, spec}, nil
	}
	mixes := workload.Mixes()
	for i, m := range mixes {
		if workload.MixName(i, m) == name || fmt.Sprintf("mix%02d", i+1) == name {
			return m[:], nil
		}
	}
	return nil, fmt.Errorf("sim: unknown workload %q", name)
}

// AllCaseNames returns the 34 workload names: 18 SPEC + 16 mixes.
func AllCaseNames() []string {
	var names []string
	for _, s := range workload.SPEC17() {
		names = append(names, s.Name)
	}
	for i := range workload.Mixes() {
		names = append(names, fmt.Sprintf("mix%02d", i+1))
	}
	return names
}

// SPECCaseNames returns the 18 SPEC workload names.
func SPECCaseNames() []string {
	var names []string
	for _, s := range workload.SPEC17() {
		names = append(names, s.Name)
	}
	return names
}

// streamsFor builds per-core streams for the case with the given nominal
// IPC. Stream lengths encode a fixed instruction budget — the paper's
// methodology — so a slowed-down scheme executes the same work over a
// longer simulated time, and per-64ms metrics are rate-normalized.
func (r *Runner) streamsFor(name string, nominalIPC float64) ([]cpu.Stream, error) {
	specs, err := caseSpecs(name)
	if err != nil {
		return nil, err
	}
	if len(specs) < r.cfg.Cores {
		return nil, fmt.Errorf("sim: case %q has %d specs for %d cores", name, len(specs), r.cfg.Cores)
	}
	windowInstr := float64(r.cfg.Window) / 1e12 * 3e9 * nominalIPC
	out := make([]cpu.Stream, r.cfg.Cores)
	for i := 0; i < r.cfg.Cores; i++ {
		spec := specs[i]
		reqs := int64(windowInstr*spec.MPKI/1000) + 16
		if r.cfg.DisableTraceReplay {
			gen := r.generator(spec, i, nominalIPC)
			out[i] = gen.Stream(reqs, r.cfg.Seed+uint64(i)*7919)
			continue
		}
		out[i] = r.replayStream(spec, i, nominalIPC, reqs)
	}
	return out, nil
}

// generator returns the shared generator for (spec, core, nominal IPC),
// building it on first use. Generators are immutable after construction
// and streams carry their own RNG state, so sharing one across concurrent
// cells cannot couple their results.
func (r *Runner) generator(spec workload.Spec, coreIdx int, nominalIPC float64) *workload.Generator {
	key := genKey{spec: spec.Name, core: coreIdx, nominal: nominalIPC}
	r.mu.Lock()
	gen, ok := r.genCache[key]
	r.mu.Unlock()
	if ok {
		return gen
	}
	params := workload.Params{
		EpochLength: r.cfg.Timing.TREFW,
		NominalIPC:  nominalIPC,
		Cores:       r.cfg.Cores,
	}
	gen = workload.NewGenerator(spec, r.region, coreIdx, r.cfg.Seed, params)
	r.mu.Lock()
	// A concurrent builder may have won the race; keep the first instance
	// (both are identical by construction).
	if prior, ok := r.genCache[key]; ok {
		gen = prior
	} else {
		r.genCache[key] = gen
	}
	r.mu.Unlock()
	return gen
}

// baselineIPC returns (and caches) the calibrated baseline IPC for a case.
// The IPC is also a store entry (see ipcKey), so a rerun skips the
// calibration pass.
func (r *Runner) baselineIPC(ctx context.Context, name string) (float64, error) {
	r.mu.Lock()
	ipc, ok := r.ipcCache[name]
	r.mu.Unlock()
	if ok {
		return ipc, nil
	}
	return r.ipcFlight.DoCtx(ctx, name, func() (float64, error) {
		r.mu.Lock()
		ipc, ok := r.ipcCache[name]
		r.mu.Unlock()
		if ok {
			return ipc, nil
		}
		if ipc, ok := r.cachedIPC(name); ok {
			r.mu.Lock()
			r.ipcCache[name] = ipc
			r.mu.Unlock()
			return ipc, nil
		}
		res, err := r.runOnce(ctx, name, SchemeBaseline, 1000, 1.0)
		if err != nil {
			return 0, err
		}
		ipc = res.IPC
		if ipc <= 0.01 {
			ipc = 0.01
		}
		if ipc > 2 {
			ipc = 2
		}
		r.mu.Lock()
		r.ipcCache[name] = ipc
		r.mu.Unlock()
		r.storeIPC(name, ipc)
		return ipc, nil
	})
}

// baseline resolves the shared per-workload work — the calibration pass
// (when enabled) and the baseline measurement — and returns the baseline
// result plus the nominal IPC every cell of this workload simulates at.
// Concurrent callers for the same workload share one execution.
func (r *Runner) baseline(ctx context.Context, name string) (Result, float64, error) {
	nominal := 1.0
	if r.cfg.Calibrate {
		ipc, err := r.baselineIPC(ctx, name)
		if err != nil {
			return Result{}, 0, err
		}
		nominal = ipc
	}
	base, err := r.measuredBaseline(ctx, name, nominal)
	if err != nil {
		return Result{}, 0, err
	}
	return base, nominal, nil
}

// injectorFor arms the cell's injected faults. The cell-level kind
// ("panic") fires here, before the system is built — it models a harness
// failure rather than a hardware one. Hardware kinds ride the returned
// injector into the system layers.
func (r *Runner) injectorFor(name string, scheme Scheme, trh int64) *fault.Injector {
	plan := r.cfg.Faults.PlanFor(name, scheme.String(), trh)
	if plan.Empty() {
		return nil
	}
	seed := rng.Derive(r.cfg.Seed, rng.HashString(name), rng.HashString(scheme.String()), uint64(trh), 0xFA17)
	inj := fault.NewInjector(seed, plan)
	if inj.Fire(fault.CellPanic, 0) {
		panic(fmt.Sprintf("injected panic in cell %s/%s/%d", name, scheme, trh))
	}
	return inj
}

// runOnce builds and runs one system.
func (r *Runner) runOnce(ctx context.Context, name string, scheme Scheme, trh int64, nominalIPC float64) (Result, error) {
	return r.runVariantOnce(ctx, name, scheme, trh, nominalIPC, Config{})
}

// runVariantOnce builds and runs one system with structural overrides
// (tracker kind, bloom/cache sizing, proactive drain) merged in.
func (r *Runner) runVariantOnce(ctx context.Context, name string, scheme Scheme, trh int64, nominalIPC float64, overrides Config) (Result, error) {
	streams, err := r.streamsFor(name, nominalIPC)
	if err != nil {
		return Result{}, err
	}
	inj := r.injectorFor(name, scheme, trh)
	cfg := Config{
		Geometry:        r.cfg.Geometry,
		Timing:          r.cfg.Timing,
		TRH:             trh,
		Scheme:          scheme,
		Cores:           r.cfg.Cores,
		Seed:            r.cfg.Seed,
		Tracker:         overrides.Tracker,
		BloomGroupSize:  overrides.BloomGroupSize,
		FPTCacheEntries: overrides.FPTCacheEntries,
		ProactiveDrain:  overrides.ProactiveDrain,
		Faults:          inj,
	}
	sys, err := NewSystemE(cfg, streams)
	if err != nil {
		return Result{}, err
	}
	return sys.RunCtx(ctx, 0)
}

// protectCell runs fn once with panic isolation, converting any failure
// into a *CellError carrying the cell's identity (and, for a recovered
// panic, the stack). A cell is deterministic, so a failed one would fail
// the same way again: nothing is retried. Cancellation passes through
// untouched so callers can tell "the run was stopped" from "this cell is
// broken".
func (r *Runner) protectCell(name string, scheme Scheme, trh int64, fn func() error) error {
	if r.initErr != nil {
		return &CellError{Workload: name, Scheme: scheme, TRH: trh, Err: r.initErr}
	}
	err := flight.Protect(fn)
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	ce := &CellError{Workload: name, Scheme: scheme, TRH: trh, Err: err}
	var pe *flight.PanicError
	if errors.As(err, &pe) {
		ce.Stack = pe.Stack
	}
	return ce
}

// runCell is one unprotected cell execution: baseline resolution plus the
// scheme measurement, normalized.
func (r *Runner) runCell(ctx context.Context, name string, scheme Scheme, trh int64) (WorkloadRun, error) {
	base, nominal, err := r.baseline(ctx, name)
	if err != nil {
		return WorkloadRun{}, err
	}
	if scheme == SchemeBaseline {
		return WorkloadRun{Workload: name, Scheme: scheme, TRH: trh, Result: base, NormIPC: 1}, nil
	}
	res, err := r.runOnce(ctx, name, scheme, trh, nominal)
	if err != nil {
		return WorkloadRun{}, err
	}
	norm := 1.0
	if base.IPC > 0 {
		norm = res.IPC / base.IPC
	}
	return WorkloadRun{Workload: name, Scheme: scheme, TRH: trh, Result: res, NormIPC: norm}, nil
}

// RunVariant measures one workload under a scheme with structural
// overrides, normalized against the unmodified baseline.
func (r *Runner) RunVariant(name string, scheme Scheme, trh int64, overrides Config) (WorkloadRun, error) {
	return r.RunVariantCtx(context.Background(), name, scheme, trh, overrides)
}

// RunVariantCtx is RunVariant with cancellation and panic isolation.
// Variant runs are never memoized or stored: the structural overrides
// are not part of the cell key.
func (r *Runner) RunVariantCtx(ctx context.Context, name string, scheme Scheme, trh int64, overrides Config) (WorkloadRun, error) {
	var run WorkloadRun
	err := r.protectCell(name, scheme, trh, func() error {
		base, nominal, err := r.baseline(ctx, name)
		if err != nil {
			return err
		}
		res, err := r.runVariantOnce(ctx, name, scheme, trh, nominal, overrides)
		if err != nil {
			return err
		}
		norm := 1.0
		if base.IPC > 0 {
			norm = res.IPC / base.IPC
		}
		run = WorkloadRun{Workload: name, Scheme: scheme, TRH: trh, Result: res, NormIPC: norm}
		return nil
	})
	if err != nil {
		return WorkloadRun{}, err
	}
	return run, nil
}

// Run measures one workload under one scheme at the given threshold,
// returning the scheme result and the normalized IPC vs the baseline.
func (r *Runner) Run(name string, scheme Scheme, trh int64) (WorkloadRun, error) {
	return r.RunCtx(context.Background(), name, scheme, trh)
}

// RunCtx is Run with cancellation, panic isolation and cell caching. A
// failure comes back as a *CellError (identity + cause + panic stack);
// cancellation comes back as the context's error, unwrapped.
//
// Every cell takes one path, whether or not a fault rule matches it: the
// in-memory memo, then a coalesced in-flight execution of the same cell,
// then the content-addressed cache, and only then one protected
// simulation. Fault rules are part of the cache key, so a result computed
// under rules is only ever served to a Runner with the same rules. Failed
// (including cancelled) cells are neither memoized nor stored.
//
//detertaint:root
func (r *Runner) RunCtx(ctx context.Context, name string, scheme Scheme, trh int64) (WorkloadRun, error) {
	key := cellKey{name, scheme, trh}
	r.mu.Lock()
	r.cellStats.Requests++
	run, ok := r.cellMemo[key]
	r.mu.Unlock()
	if ok {
		return run, nil
	}
	run, err := r.cellFlight.DoCtx(ctx, key, func() (WorkloadRun, error) {
		return r.computeCell(ctx, key)
	})
	if err != nil {
		r.mu.Lock()
		r.cellStats.Errors++
		r.mu.Unlock()
		return WorkloadRun{}, err
	}
	return run, nil
}

// computeCell resolves one cell inside its singleflight execution: memo
// recheck (a flight that completed between the caller's miss and DoCtx
// may have stored it), then the content-addressed cache, then a real
// simulation.
func (r *Runner) computeCell(ctx context.Context, key cellKey) (WorkloadRun, error) {
	r.mu.Lock()
	run, ok := r.cellMemo[key]
	r.mu.Unlock()
	if ok {
		return run, nil
	}
	if r.cells != nil {
		if run, ok := r.cacheLookup(key); ok {
			r.mu.Lock()
			r.cellStats.CacheHits++
			r.cellMemo[key] = run
			r.mu.Unlock()
			return run, nil
		}
		r.mu.Lock()
		r.cellStats.CacheMisses++
		r.mu.Unlock()
	}
	err := r.protectCell(key.workload, key.scheme, key.trh, func() error {
		var err error
		run, err = r.runCell(ctx, key.workload, key.scheme, key.trh)
		return err
	})
	if err != nil {
		return WorkloadRun{}, err
	}
	r.mu.Lock()
	r.cellStats.Simulated++
	r.cellMemo[key] = run
	r.mu.Unlock()
	if r.cells != nil {
		r.cacheStore(key, run)
	}
	return run, nil
}

// Cells returns every memoized cell, in canonical workload/scheme/trh
// order.
//
//detertaint:root
func (r *Runner) Cells() []WorkloadRun {
	r.mu.Lock()
	out := make([]WorkloadRun, 0, len(r.cellMemo))
	for _, run := range r.cellMemo {
		out = append(out, run)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Scheme != b.Scheme {
			return a.Scheme < b.Scheme
		}
		return a.TRH < b.TRH
	})
	return out
}

// RunGrid measures each workload under each (scheme, trh) pair, reusing
// per-workload baselines. Results are grouped by workload in input order.
type GridCell struct {
	Scheme Scheme
	TRH    int64
}

// GridResult holds one workload's row of the grid.
type GridResult struct {
	Workload string
	Baseline Result
	Cells    []WorkloadRun
}

// RunGrid runs the full grid: every (workload, cell) pair fans out to
// the worker pool (cfg.Parallel wide), each on its own isolated system
// build, with the per-workload calibration and baseline deduplicated
// across concurrent cells. Results land in preallocated slots addressed
// by (workload index, cell index), so the returned grid — and anything
// rendered from it — is byte-identical to a serial run regardless of
// completion order.
func (r *Runner) RunGrid(names []string, cells []GridCell) ([]GridResult, error) {
	return r.RunGridCtx(context.Background(), names, cells)
}

// RunGridCtx is RunGrid with cancellation and per-cell fault isolation. A
// failing cell does not abort the fan-out: its failure is recorded and the
// remaining cells run to completion. The partial grid is always returned;
// when any cells failed, the error is a *GridError listing them in grid
// order. When the context is cancelled the grid stops promptly and the
// context's error is returned with whatever completed so far.
//
//detertaint:root
func (r *Runner) RunGridCtx(ctx context.Context, names []string, cells []GridCell) ([]GridResult, error) {
	out := make([]GridResult, len(names))
	for i, name := range names {
		out[i] = GridResult{Workload: name, Cells: make([]WorkloadRun, len(cells))}
	}
	// One task per cell, plus one per workload so baselines are resolved
	// (and recorded in out[i].Baseline) even for an empty cell list.
	perName := len(cells) + 1
	cellErrs := make([]*CellError, len(names)*perName)
	err := flight.ForEachCtx(ctx, len(names)*perName, r.cfg.Parallel, func(k int) error {
		i, j := k/perName, k%perName
		scheme, trh := SchemeBaseline, int64(1000)
		if j < len(cells) {
			scheme, trh = cells[j].Scheme, cells[j].TRH
		}
		run, err := r.RunCtx(ctx, names[i], scheme, trh)
		if err != nil {
			var ce *CellError
			if errors.As(err, &ce) {
				// Isolate the broken cell; the rest of the grid proceeds.
				cellErrs[k] = ce
				return nil
			}
			// Cancellation (or a non-cell failure): abort the fan-out.
			return err
		}
		if j == len(cells) {
			out[i].Baseline = run.Result
		} else {
			out[i].Cells[j] = run
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	var failed []*CellError
	for _, ce := range cellErrs {
		if ce != nil {
			failed = append(failed, ce)
		}
	}
	if len(failed) > 0 {
		return out, &GridError{Cells: failed}
	}
	return out, nil
}

// RowTierCounts measures the Table II characterization on a baseline run:
// the number of rows whose activation count within the window reaches each
// tier (scaled to the 64ms epoch when the window differs).
func (r *Runner) RowTierCounts(name string, tiers []int64) (map[int64]int, error) {
	if r.initErr != nil {
		return nil, r.initErr
	}
	nominal := 1.0
	if r.cfg.Calibrate {
		ipc, err := r.baselineIPC(context.Background(), name)
		if err != nil {
			return nil, err
		}
		nominal = ipc
	}
	streams, err := r.streamsFor(name, nominal)
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Geometry: r.cfg.Geometry, Timing: r.cfg.Timing,
		TRH: 1000, Scheme: SchemeBaseline, Cores: r.cfg.Cores, Seed: r.cfg.Seed,
	}
	sys, err := NewSystemE(cfg, streams)
	if err != nil {
		return nil, err
	}
	// Count activations per row through a rank listener; only the rows
	// the run activates take an entry.
	var acts rowmap.Map
	sys.Rank.Listen(func(row dram.Row, _ dram.PS) {
		if n := acts.Ref(row); n != nil {
			*n++
		} else {
			acts.Set(row, 1)
		}
	})
	res := sys.Run(0)

	scale := float64(res.SimTime) / float64(64*dram.Millisecond)
	if scale == 0 {
		scale = 1
	}
	counts := make(map[int64]int, len(tiers))
	acts.Range(func(_ dram.Row, n int32) bool {
		for _, tier := range tiers {
			if float64(n) >= float64(tier)*scale {
				counts[tier]++
			}
		}
		return true
	})
	sortTiers(tiers)
	return counts, nil
}

func sortTiers(tiers []int64) {
	sort.Slice(tiers, func(i, j int) bool { return tiers[i] < tiers[j] })
}

// LookupBreakdown summarizes Translate resolutions as fractions (Figure
// 10's four categories).
type LookupBreakdown struct {
	BloomFiltered float64
	CacheHit      float64
	Singleton     float64
	DRAM          float64
}

// BreakdownOf extracts the Figure 10 fractions from a result.
func BreakdownOf(res Result) LookupBreakdown {
	s := res.MitStats
	total := float64(s.Lookups[mitigation.LookupBloomFiltered] +
		s.Lookups[mitigation.LookupCacheHit] +
		s.Lookups[mitigation.LookupSingleton] +
		s.Lookups[mitigation.LookupDRAM])
	if total == 0 {
		return LookupBreakdown{}
	}
	return LookupBreakdown{
		BloomFiltered: float64(s.Lookups[mitigation.LookupBloomFiltered]) / total,
		CacheHit:      float64(s.Lookups[mitigation.LookupCacheHit]) / total,
		Singleton:     float64(s.Lookups[mitigation.LookupSingleton]) / total,
		DRAM:          float64(s.Lookups[mitigation.LookupDRAM]) / total,
	}
}
