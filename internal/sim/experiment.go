package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/cellcache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/flight"
	"repro/internal/mitigation"
	"repro/internal/rowmap"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ExpConfig parameterizes the figure-regeneration experiments.
type ExpConfig struct {
	// Window is the simulated measurement window (default one refresh
	// window, 64ms, matching the paper's per-64ms metrics).
	Window dram.PS
	// Seed for workload and scheme randomization.
	Seed uint64
	// Calibrate runs a baseline pass first and regenerates streams with
	// the measured IPC so hot rows hit their Table II activation targets
	// within real time (see DESIGN.md). A zero ExpConfig does not
	// calibrate; the Lab sets it unless LabOptions.NoCalibration.
	Calibrate bool
	// Parallel bounds how many grid cells Precompute simulates
	// concurrently (0 = GOMAXPROCS, 1 = serial). Each cell builds a fully
	// isolated system, and callers read results back in their own
	// canonical order, so the value changes wall-clock only — never the
	// numbers (see DESIGN.md "Concurrency model").
	Parallel int
}

func (e *ExpConfig) fillDefaults() {
	if e.Window == 0 {
		e.Window = 64 * dram.Millisecond
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
	return nil
}

// paperCores is the core count of the paper's Table I system, which every
// Runner cell simulates on one baseline 16 GB DDR4-2400 rank.
const paperCores = 4

// WorkloadRun is one cell's measurement: a workload under a GridCell.
type WorkloadRun struct {
	Workload string
	Scheme   Scheme
	TRH      int64
	// Variant is the cell's Variant.String(), empty for a plain cell.
	Variant string `json:",omitempty"`
	// Result is the cell's run (a co-run cell's protected leg).
	Result Result
	// NormIPC is IPC relative to the unprotected baseline of the same
	// workload (1.0 = no slowdown), set by MeasureIPC cells only.
	NormIPC float64
	// Tiers and CoRun hold a MeasureTiers or MeasureCoRun cell's
	// measurement, and are nil otherwise.
	Tiers *RowTiers    `json:",omitempty"`
	CoRun *CoRunResult `json:",omitempty"`
}

// Label names the cell as workload/scheme/trh[/variant].
func (w WorkloadRun) Label() string { return cellLabel(w.Workload, w.Scheme, w.TRH, w.Variant) }

func cellLabel(name string, scheme Scheme, trh int64, variant string) string {
	label := fmt.Sprintf("%s/%s/%d", name, scheme, trh)
	if variant != "" {
		label += "/" + variant
	}
	return label
}

// Runner executes workload x scheme grids with shared calibration. A
// Runner is safe for concurrent use: the per-workload calibration and
// baseline measurement and every cell are memoized in flight.Groups, so
// concurrent cells wanting the same workload block on one shared pass
// instead of repeating it, while each cell's own simulation runs on a
// fully isolated system build.
type Runner struct {
	cfg ExpConfig
	// region is the baseline system's software-visible address region,
	// shared by every stream build.
	region workload.Region
	// initErr records a construction failure (a config no cell could run
	// under). A Runner with initErr set is inert: every cell it is asked
	// to run fails with a CellError wrapping initErr instead of crashing
	// the process.
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
	// traceMem is the trace tier (tracetier.go): packed per-core request
	// streams keyed by (spec, core, nominal IPC, request budget), replayed
	// by every cell sharing the workload. cellStats.TraceBytes tracks its
	// footprint against the budget.
	traceMem map[streamKey]*trace.Packed // guarded by mu
	// cellStats counts how cacheable cell requests were satisfied.
	cellStats CellStats // guarded by mu

	// ipcFlight holds each workload's calibrated IPC from its baseline
	// pass, and baseFlight its measured baseline result (which depends only
	// on the workload and that IPC, not on the scheme or threshold compared
	// against it).
	ipcFlight  flight.Group[string, float64]
	baseFlight flight.Group[string, Result]
	// cellFlight memoizes completed cells, keyed by (workload, GridCell),
	// for the life of the Runner, so identical grid cells (the same
	// baseline repeated at every sweep point) simulate at most once even
	// with no cache attached and even when requested sequentially.
	cellFlight flight.Group[cellKey, WorkloadRun]
}

// streamKey identifies one core's request stream: under the Runner's
// fixed region and seed it is a pure function of these four (a co-run's
// capped window shortens reqs at the same nominal IPC).
type streamKey struct {
	spec    string
	core    int
	nominal float64
	reqs    int64
}

// NewRunner builds a Runner over the paper's Table I system: paperCores
// cores on one baseline rank. It never panics: an invalid configuration
// yields an inert Runner whose cells all fail with a CellError wrapping
// the construction error (use NewRunnerE or Err to see it directly).
func NewRunner(cfg ExpConfig) *Runner {
	cfg.fillDefaults()
	return &Runner{
		cfg:         cfg,
		region:      VisibleRegion(Config{}),
		initErr:     cfg.validate(),
		traceBudget: traceBudgetBytes,
		traceMem:    make(map[streamKey]*trace.Packed),
	}
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
	Variant  string // the cell's Variant.String()
	// Err is the underlying failure; a recovered panic arrives as a
	// *flight.PanicError.
	Err error
	// Stack is the goroutine stack captured at a recovered panic (nil for
	// ordinary errors).
	Stack []byte
}

// Error implements error.
func (c *CellError) Error() string {
	return fmt.Sprintf("cell %s: %v", c.Label(), c.Err)
}

// Label names the failed cell as WorkloadRun.Label does.
func (c *CellError) Label() string { return cellLabel(c.Workload, c.Scheme, c.TRH, c.Variant) }

// Unwrap exposes the underlying failure to errors.Is/As.
func (c *CellError) Unwrap() error { return c.Err }

// measuredBaseline runs (or returns the cached) baseline measurement for a
// workload at the given nominal IPC. The baseline cell's store entry holds
// this very Result, so it is read before simulating.
func (r *Runner) measuredBaseline(ctx context.Context, name string, nominal float64) (Result, error) {
	return r.baseFlight.DoCtx(ctx, name, func() (Result, error) {
		if run, ok := r.cacheLookup(cellKey{name, baselineCell}); ok {
			return run.Result, nil
		}
		return r.runOnce(ctx, name, baselineCell, nominal, true)
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
// IPC, each served from the trace tier, which keeps the ones it captures
// only if keep is set. Stream lengths encode a fixed instruction budget —
// the paper's methodology — so a slowed-down scheme executes the same
// work over a longer simulated time, and per-64ms metrics are
// rate-normalized.
func (r *Runner) streamsFor(name string, nominalIPC float64, keep bool) ([]cpu.Stream, error) {
	specs, err := caseSpecs(name)
	if err != nil {
		return nil, err
	}
	out := make([]cpu.Stream, paperCores)
	for i := range out {
		out[i] = r.replayStream(specs[i], i, nominalIPC, requestBudget(r.cfg.Window, nominalIPC, specs[i].MPKI), keep)
	}
	return out, nil
}

// requestBudget is a core's request count: a window's instructions at
// cpu.FreqHz and the nominal IPC, at the spec's MPKI, plus a small floor.
func requestBudget(window dram.PS, nominalIPC, mpki float64) int64 {
	return int64(float64(window)/1e12*cpu.FreqHz*nominalIPC*mpki/1000) + 16
}

// baselineIPC returns (and caches) the calibrated baseline IPC for a case.
// The IPC is also a store entry (see ipcKey), so a rerun skips the
// calibration pass. The pass's streams are served once and never enter
// the trace tier: every cell of the workload runs at the calibrated IPC,
// so none would replay them.
func (r *Runner) baselineIPC(ctx context.Context, name string) (float64, error) {
	return r.ipcFlight.DoCtx(ctx, name, func() (float64, error) {
		if ipc, ok := r.cachedIPC(name); ok {
			return ipc, nil
		}
		res, err := r.runOnce(ctx, name, baselineCell, 1.0, false)
		if err != nil {
			return 0, err
		}
		ipc := res.IPC
		if ipc <= 0.01 {
			ipc = 0.01
		}
		if ipc > 2 {
			ipc = 2
		}
		r.storeIPC(name, ipc)
		return ipc, nil
	})
}

// nominalIPC is the IPC every cell of the workload simulates at: the
// calibrated baseline IPC when calibration is on, else 1.0.
func (r *Runner) nominalIPC(ctx context.Context, name string) (float64, error) {
	if !r.cfg.Calibrate {
		return 1.0, nil
	}
	return r.baselineIPC(ctx, name)
}

// baseline resolves the shared per-workload work — the calibration pass
// (when enabled) and the baseline measurement — and returns the baseline
// result plus the nominal IPC every cell of this workload simulates at.
// Concurrent callers for the same workload share one execution.
func (r *Runner) baseline(ctx context.Context, name string) (Result, float64, error) {
	nominal, err := r.nominalIPC(ctx, name)
	if err != nil {
		return Result{}, 0, err
	}
	base, err := r.measuredBaseline(ctx, name, nominal)
	if err != nil {
		return Result{}, 0, err
	}
	return base, nominal, nil
}

// newSystem builds the cell's system over the workload's streams at the
// nominal IPC, with the cell's structure sizes. The trace
// tier keeps the streams it captures for it only if keep is set.
func (r *Runner) newSystem(name string, cell GridCell, nominalIPC float64, keep bool) (*System, error) {
	streams, err := r.streamsFor(name, nominalIPC, keep)
	if err != nil {
		return nil, err
	}
	return NewSystemE(Config{
		TRH:             cell.TRH,
		Scheme:          cell.Scheme,
		Cores:           paperCores,
		Seed:            r.cfg.Seed,
		BloomGroupSize:  cell.Variant.BloomGroupSize,
		FPTCacheEntries: cell.Variant.FPTCacheEntries,
	}, streams)
}

// runOnce builds and runs one cell's system.
func (r *Runner) runOnce(ctx context.Context, name string, cell GridCell, nominalIPC float64, keep bool) (Result, error) {
	sys, err := r.newSystem(name, cell, nominalIPC, keep)
	if err != nil {
		return Result{}, err
	}
	return sys.RunCtx(ctx, 0)
}

// runCell is one cell execution. An IPC cell is normalized
// against the workload's baseline; a tier cell needs only the nominal
// IPC; a co-run cell runs at nominal IPC 1.0.
func (r *Runner) runCell(ctx context.Context, key cellKey) (WorkloadRun, error) {
	name, cell := key.workload, key.cell
	run := WorkloadRun{Workload: name, Scheme: cell.Scheme, TRH: cell.TRH, Variant: cell.Variant.String()}
	switch cell.Variant.Measure {
	case MeasureIPC:
		base, nominal, err := r.baseline(ctx, name)
		if err != nil {
			return WorkloadRun{}, err
		}
		run.Result, run.NormIPC = base, 1
		if cell.Scheme == SchemeBaseline {
			return run, nil
		}
		if run.Result, err = r.runOnce(ctx, name, cell, nominal, true); err != nil {
			return WorkloadRun{}, err
		}
		if base.IPC > 0 {
			run.NormIPC = run.Result.IPC / base.IPC
		}
		return run, nil
	case MeasureTiers:
		nominal, err := r.nominalIPC(ctx, name)
		if err != nil {
			return WorkloadRun{}, err
		}
		tiers, res, err := r.rowTiers(ctx, name, cell, nominal)
		if err != nil {
			return WorkloadRun{}, err
		}
		run.Result, run.Tiers = res, &tiers
		return run, nil
	case MeasureCoRun:
		co, res, err := r.coRun(ctx, name, cell)
		if err != nil {
			return WorkloadRun{}, err
		}
		run.Result, run.CoRun = res, &co
		return run, nil
	}
	return WorkloadRun{}, fmt.Errorf("sim: unknown measure %d", cell.Variant.Measure)
}

// Run measures one workload under one scheme at the given threshold,
// returning the scheme result and the normalized IPC vs the baseline.
func (r *Runner) Run(name string, scheme Scheme, trh int64) (WorkloadRun, error) {
	return r.RunCtx(context.Background(), name, GridCell{Scheme: scheme, TRH: trh})
}

// RunCtx is Run for a cell of any kind, with cancellation, panic
// isolation and cell caching. A failure comes back as a *CellError
// (identity + cause + panic stack); cancellation comes back as the
// context's error, unwrapped.
//
// A threshold CheckTRH rejects fails as a *CellError before the memo or
// the cache is consulted, so nothing is ever stored under its key.
//
// Every cell takes one path: the cell memo, which also joins an in-flight
// execution of the same cell, then the content-addressed cache, and only
// then one simulation, whose panic the memo contains. A cell is
// deterministic, so a failed one would fail the same way again: nothing
// is retried, and failed (including cancelled) cells are neither memoized
// nor stored.
func (r *Runner) RunCtx(ctx context.Context, name string, cell GridCell) (WorkloadRun, error) {
	key := cellKey{name, cell}
	if err := CheckTRH(cell.Scheme, cell.TRH); err != nil {
		return WorkloadRun{}, key.fail(err)
	}
	r.mu.Lock()
	r.cellStats.Requests++
	r.mu.Unlock()
	run, err := r.cellFlight.DoCtx(ctx, key, func() (WorkloadRun, error) {
		return r.computeCell(ctx, key)
	})
	if err == nil {
		return run, nil
	}
	r.mu.Lock()
	r.cellStats.Errors++
	r.mu.Unlock()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return WorkloadRun{}, err
	}
	ce := key.fail(err)
	var pe *flight.PanicError
	if errors.As(err, &pe) {
		ce.Stack = pe.Stack
	}
	return WorkloadRun{}, ce
}

// computeCell resolves one cell inside its memoized execution: the
// content-addressed cache, then a real simulation.
func (r *Runner) computeCell(ctx context.Context, key cellKey) (WorkloadRun, error) {
	if r.initErr != nil {
		return WorkloadRun{}, r.initErr
	}
	if r.cells != nil {
		if run, ok := r.cacheLookup(key); ok {
			r.mu.Lock()
			r.cellStats.CacheHits++
			r.mu.Unlock()
			return run, nil
		}
		r.mu.Lock()
		r.cellStats.CacheMisses++
		r.mu.Unlock()
	}
	run, err := r.runCell(ctx, key)
	if err != nil {
		return WorkloadRun{}, err
	}
	r.mu.Lock()
	r.cellStats.Simulated++
	r.mu.Unlock()
	if r.cells != nil {
		r.cacheStore(key, run)
	}
	return run, nil
}

// Precompute resolves every (workload, cell) pair of names x cells
// through RunCtx on at most ExpConfig.Parallel workers, each cell on its
// own isolated system, with the per-workload calibration and baseline
// shared across concurrent cells. Completed cells land in the memo, where
// callers read them back with RunCtx in their own canonical order, so
// anything rendered from them is byte-identical to a serial run. It is
// the engine's only grid fan-out.
//
// A failing cell does not stop the fan-out: every other cell still runs,
// and the error returned is the failure at the lowest grid index (a
// *CellError), independent of completion order. When ctx ends, no
// further cell is dispatched and the context's error is returned; the
// cells completed so far stay memoized.
func (r *Runner) Precompute(ctx context.Context, names []string, cells []GridCell) error {
	if len(cells) == 0 {
		return nil
	}
	return flight.ForEachCtx(ctx, len(names)*len(cells), r.cfg.Parallel, func(k int) error {
		_, err := r.RunCtx(ctx, names[k/len(cells)], cells[k%len(cells)])
		return err
	})
}

// Cells returns every memoized cell, in canonical workload/scheme/trh
// order, a plain cell before its variants and variants by label.
func (r *Runner) Cells() []WorkloadRun {
	var out []WorkloadRun
	r.cellFlight.Range(func(_ cellKey, run WorkloadRun) { out = append(out, run) })
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Scheme != b.Scheme {
			return a.Scheme < b.Scheme
		}
		if a.TRH != b.TRH {
			return a.TRH < b.TRH
		}
		return a.Variant < b.Variant
	})
	return out
}

// GridCell is one keyed cell of a grid: a (scheme, threshold) column
// and a Variant, zero for the plain IPC cell.
type GridCell struct {
	Scheme  Scheme
	TRH     int64
	Variant Variant
}

// baselineCell is every workload's unprotected reference cell.
var baselineCell = GridCell{Scheme: SchemeBaseline, TRH: 1000}

// Variant is what a cell sets beyond its scheme and threshold.
type Variant struct {
	// BloomGroupSize and FPTCacheEntries size AQUA's memory-mapped
	// structures for the Section V-F sweep, as the Config fields of the
	// same names do (0 = paper defaults).
	BloomGroupSize  int
	FPTCacheEntries int
	Measure         Measure
}

// Measure selects what a cell measures on its run.
type Measure uint8

const (
	// MeasureIPC: the scheme's IPC, normalized against the baseline.
	MeasureIPC Measure = iota
	// MeasureTiers: the rows reaching each Table II activation tier.
	MeasureTiers
	// MeasureCoRun: the Section VI-C co-run beside a DoS attacker.
	MeasureCoRun
)

// String labels the variant for cell keys and reports by its non-zero
// settings, comma-separated; distinct variants get distinct labels.
func (v Variant) String() string {
	var parts []string
	if v.BloomGroupSize != 0 {
		parts = append(parts, fmt.Sprintf("bloom=%d", v.BloomGroupSize))
	}
	if v.FPTCacheEntries != 0 {
		parts = append(parts, fmt.Sprintf("fpt-cache=%d", v.FPTCacheEntries))
	}
	switch v.Measure {
	case MeasureIPC:
	case MeasureTiers:
		parts = append(parts, "tiers")
	case MeasureCoRun:
		parts = append(parts, "corun")
	default:
		parts = append(parts, fmt.Sprintf("measure=%d", v.Measure))
	}
	return strings.Join(parts, ",")
}

// RowTiers counts the rows whose activations within a run reach each
// Table II tier, scaled to the 64 ms epoch.
type RowTiers struct {
	ACT166, ACT500, ACT1K int
}

// rowTiers runs the cell's system, counting activations per row (only
// rows the run activates take an entry), and returns the tiers and run.
func (r *Runner) rowTiers(ctx context.Context, name string, cell GridCell, nominalIPC float64) (RowTiers, Result, error) {
	sys, err := r.newSystem(name, cell, nominalIPC, true)
	if err != nil {
		return RowTiers{}, Result{}, err
	}
	var acts rowmap.Map
	sys.Rank.Listen(func(row dram.Row, _ dram.PS) {
		if n := acts.Ref(row); n != nil {
			*n++
		} else {
			acts.Set(row, 1)
		}
	})
	res, err := sys.RunCtx(ctx, 0)
	if err != nil {
		return RowTiers{}, Result{}, err
	}
	scale := float64(res.SimTime) / float64(64*dram.Millisecond)
	if scale == 0 {
		scale = 1
	}
	var tiers RowTiers
	acts.Range(func(_ dram.Row, n int32) bool {
		reaches := func(tier float64) int {
			if float64(n) >= tier*scale {
				return 1
			}
			return 0
		}
		tiers.ACT166 += reaches(166)
		tiers.ACT500 += reaches(500)
		tiers.ACT1K += reaches(1000)
		return true
	})
	return tiers, res, nil
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
