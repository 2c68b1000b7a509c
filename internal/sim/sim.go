// Package sim binds the pieces into a runnable system — rank, memory
// controller, mitigation engine, interval-model cores, security monitor —
// and provides the experiment harness used to regenerate the paper's
// figures: build a baseline and a mitigated system over identical request
// streams, run both, and report normalized IPC, migrations per 64ms, and
// the FPT-lookup breakdown.
package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/blockhammer"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/flight"
	"repro/internal/invariant"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/power"
	"repro/internal/rrs"
	"repro/internal/security"
	"repro/internal/tracker"
	"repro/internal/vrefresh"
	"repro/internal/workload"
)

// Scheme names a mitigation configuration the harness can instantiate.
type Scheme int

const (
	// SchemeBaseline runs unprotected.
	SchemeBaseline Scheme = iota
	// SchemeAquaSRAM is AQUA with SRAM tables (Section IV).
	SchemeAquaSRAM
	// SchemeAquaMemMapped is AQUA with memory-mapped tables (Section V).
	SchemeAquaMemMapped
	// SchemeRRS is Randomized Row-Swap.
	SchemeRRS
	// SchemeBlockhammer is the rate-limiting baseline.
	SchemeBlockhammer
	// SchemeVictimRefresh refreshes distance-1 neighbours.
	SchemeVictimRefresh
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeBaseline:
		return "baseline"
	case SchemeAquaSRAM:
		return "aqua-sram"
	case SchemeAquaMemMapped:
		return "aqua-memmapped"
	case SchemeRRS:
		return "rrs"
	case SchemeBlockhammer:
		return "blockhammer"
	case SchemeVictimRefresh:
		return "victim-refresh"
	default:
		return "unknown"
	}
}

// ParseScheme returns the scheme whose String is name: the one table that
// maps a scheme name to a Scheme.
func ParseScheme(name string) (Scheme, error) {
	for s := SchemeBaseline; s <= SchemeVictimRefresh; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q", name)
}

// CheckTRH rejects a Rowhammer threshold the scheme cannot run at. Below
// 2 no scheme has a meaning: the security monitor counts to T_RH and the
// mitigations act at T_RH/2. AQUA (either table mode) needs T_RH >= 4, an
// effective threshold T_RH/2 >= 2, and RRS needs T_RH >= 42, a swap
// threshold T_RH/6 >= 7. Both floors are measured boundaries, not derived
// ones: below them 1 ms cells on SPEC workloads (AQUA at 2 and 3, RRS as
// high as 41) ran on past their -timeout, which cannot interrupt a single
// Submit, while at the floors every workload and attack tried finished in
// well under a second.
func CheckTRH(scheme Scheme, trh int64) error {
	if trh < 2 {
		return fmt.Errorf("T_RH %d: must be >= 2", trh)
	}
	var floor int64
	switch scheme {
	case SchemeAquaSRAM, SchemeAquaMemMapped:
		floor = 4
	case SchemeRRS:
		floor = 42
	}
	if trh < floor {
		return fmt.Errorf("T_RH %d: %s needs T_RH >= %d", trh, scheme, floor)
	}
	return nil
}

// Config parameterizes a system build. Every system runs on the
// paper's Table I rank, dram.Baseline().
type Config struct {
	Timing dram.Timing
	// TRH is the Rowhammer threshold handed to the mitigation.
	TRH int64
	// Scheme selects the mitigation.
	Scheme Scheme
	// Cores is the core count (default 4).
	Cores int
	// CoreCfg tunes the interval cores.
	CoreCfg cpu.Config
	// EpochLength overrides the tracker epoch (default tREFW).
	EpochLength dram.PS
	// Monitor attaches a security monitor at the given threshold when
	// true.
	Monitor bool
	// Seed drives scheme randomization.
	Seed uint64
	// Tracker selects the aggressor tracker for AQUA/RRS/victim-refresh
	// (default Misra-Gries, the paper's baseline).
	Tracker TrackerKind
	// BloomGroupSize and FPTCacheEntries override AQUA's memory-mapped
	// structures for the Section V-F sensitivity study (0 = paper
	// defaults: groups of 16 and 4K entries).
	BloomGroupSize  int
	FPTCacheEntries int
	// ProactiveDrain enables AQUA's background draining (Section IV-D),
	// serviced by the controller every IdleDrainInterval (default 10us
	// when enabled).
	ProactiveDrain bool
	// Invariants, when non-nil, threads the runtime invariant checker
	// through every layer: the rank's timing shadow, the controller's
	// reservation/starvation checks, the mitigation contract wrapper, and
	// AQUA's structural checks. Tests enable it; production runs leave it
	// nil at zero cost.
	Invariants *invariant.Checker
}

// TrackerKind selects an aggressor-tracker implementation.
type TrackerKind int

const (
	// TrackerMisraGries is the Graphene-style per-bank tracker (default).
	TrackerMisraGries TrackerKind = iota
	// TrackerHydra is the storage-optimized hybrid tracker (Appendix B's
	// AQUA-Hydra configuration).
	TrackerHydra
	// TrackerExact is the idealized exact tracker.
	TrackerExact
)

// build constructs a tracker for the given effective threshold.
func (k TrackerKind) build(geom dram.Geometry, timing dram.Timing, threshold int64) tracker.Tracker {
	switch k {
	case TrackerMisraGries:
		return nil // let the engine provision its default
	case TrackerHydra:
		return tracker.NewHydra(geom, threshold, 128)
	case TrackerExact:
		return tracker.NewExact(geom, threshold)
	default:
		panic(fmt.Sprintf("sim: unknown tracker kind %d", k))
	}
}

func (c *Config) fillDefaults() {
	if c.Timing == (dram.Timing{}) {
		c.Timing = dram.DDR4()
	}
	if c.TRH == 0 {
		c.TRH = 1000
	}
	if c.Cores == 0 {
		c.Cores = paperCores
	}
}

// System is one fully wired simulation instance.
type System struct {
	Cfg     Config
	Rank    *dram.Rank
	Ctrl    *memctrl.Controller
	Mit     mitigation.Mitigator
	Monitor *security.Monitor
	Cores   []*cpu.Core

	// Aqua is non-nil when the scheme is an AQUA variant (for breakdown
	// and layout queries).
	Aqua *core.Engine

	// next is the run loop's only scheduling state: core i's cached
	// next-issue time, or finished once its stream is exhausted (see
	// Earliest). Allocated with the System so the steady-state request
	// path stays allocation-free. Deliberately not `// guarded by`
	// anything: a System is confined to one grid worker (the result cache
	// exchanges Result values, never live Systems), so it is never shared.
	next []dram.PS
}

// VisibleRegion returns the software-visible address region for a
// configuration, consistent across all schemes *and thresholds* so that
// workloads touch identical rows everywhere: the region excludes the rows
// the most demanding layout would reserve — AQUA's memory-mapped mode at
// an effective threshold of 1, whose RQA is the Table III maximum (2.2% of
// memory).
func VisibleRegion(cfg Config) workload.Region {
	cfg.fillDefaults()
	geom := dram.Baseline()
	visible := core.VisibleRowsPerBankFor(geom, cfg.Timing,
		core.Config{TRH: 2, Mode: core.ModeMemMapped})
	return workload.Region{Geom: geom, VisibleRowsPerBank: visible}
}

// NewSystem wires a system; streams[i] drives core i. len(streams) must
// equal cfg.Cores.
func NewSystem(cfg Config, streams []cpu.Stream) *System {
	cfg.fillDefaults()
	if len(streams) != cfg.Cores {
		panic(fmt.Sprintf("sim: %d streams for %d cores", len(streams), cfg.Cores))
	}
	geom := dram.Baseline()
	rank := dram.NewRank(geom, cfg.Timing)

	s := &System{Cfg: cfg, Rank: rank}
	if cfg.Monitor {
		s.Monitor = security.NewMonitor(int(cfg.TRH), cfg.Timing.TREFW)
		s.Monitor.Attach(rank)
	}

	aquaCfg := func(mode core.Mode) core.Config {
		trh := cfg.TRH
		return core.Config{
			TRH:             trh,
			Mode:            mode,
			Tracker:         cfg.Tracker.build(geom, cfg.Timing, max(trh/2, 1)),
			BloomGroupSize:  cfg.BloomGroupSize,
			FPTCacheEntries: cfg.FPTCacheEntries,
			ProactiveDrain:  cfg.ProactiveDrain,
			Invariants:      cfg.Invariants,
		}
	}
	switch cfg.Scheme {
	case SchemeBaseline:
		s.Mit = mitigation.None{}
	case SchemeAquaSRAM:
		s.Aqua = core.New(rank, aquaCfg(core.ModeSRAM))
		s.Mit = s.Aqua
	case SchemeAquaMemMapped:
		s.Aqua = core.New(rank, aquaCfg(core.ModeMemMapped))
		s.Mit = s.Aqua
	case SchemeRRS:
		s.Mit = rrs.New(rank, rrs.Config{
			TRH: cfg.TRH, Seed: cfg.Seed,
			Tracker: cfg.Tracker.build(geom, cfg.Timing, max(cfg.TRH/rrs.SwapDivisor, 1)),
		})
	case SchemeBlockhammer:
		s.Mit = blockhammer.New(rank, blockhammer.Config{TRH: cfg.TRH})
	case SchemeVictimRefresh:
		s.Mit = vrefresh.New(rank, vrefresh.Config{
			TRH:     cfg.TRH,
			Tracker: cfg.Tracker.build(geom, cfg.Timing, max(cfg.TRH/2, 1)),
		})
	default:
		panic(fmt.Sprintf("sim: unknown scheme %d", cfg.Scheme))
	}

	if cfg.Invariants != nil {
		// Wrap the scheme in the mitigation-contract checker; s.Aqua keeps
		// pointing at the concrete engine for layout/breakdown queries.
		s.Mit = mitigation.Checked(s.Mit, geom, cfg.Invariants)
	}

	ctrlCfg := memctrl.Config{EpochLength: cfg.EpochLength, Invariants: cfg.Invariants}
	if cfg.ProactiveDrain {
		ctrlCfg.IdleDrainInterval = 10 * dram.Microsecond
	}
	s.Ctrl = memctrl.New(rank, s.Mit, ctrlCfg)
	s.Cores = make([]*cpu.Core, cfg.Cores)
	s.next = make([]dram.PS, cfg.Cores)
	for i := range s.Cores {
		s.Cores[i] = cpu.New(i, streams[i], cfg.CoreCfg)
	}
	return s
}

// NewSystemE is NewSystem with validation and panic containment: malformed
// configurations (a T_RH CheckTRH rejects once defaulted, bad timing, a
// stream/core mismatch, a layout the RQA arithmetic rejects) come back
// as errors instead of process aborts, so a bad grid cell fails as a
// CellError. The library panics in analytic/layout code stay —
// NewSystemE converts them at this boundary.
func NewSystemE(cfg Config, streams []cpu.Stream) (*System, error) {
	probe := cfg
	probe.fillDefaults()
	if err := CheckTRH(probe.Scheme, probe.TRH); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if len(streams) != probe.Cores {
		return nil, fmt.Errorf("sim: %d streams for %d cores", len(streams), probe.Cores)
	}
	if err := probe.Timing.Validate(); err != nil {
		return nil, err
	}
	var sys *System
	err := flight.Protect(func() error {
		sys = NewSystem(cfg, streams)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sys, nil
}

// Result summarizes one run.
type Result struct {
	Scheme   Scheme
	SimTime  dram.PS
	Instr    int64
	Requests int64
	// IPC is the aggregate instructions per core-cycle (sum of instr over
	// elapsed cycles, divided by core count).
	IPC       float64
	MitStats  mitigation.Stats
	CtrlStats memctrl.Stats
	// MigrationsPer64ms scales the observed row migrations to the paper's
	// per-refresh-window metric.
	MigrationsPer64ms float64
	// Violated reports whether the security monitor observed any row
	// crossing T_RH (always false without a monitor).
	Violated bool
	// MaxWindowACTs is the peak sliding-window activation count the
	// monitor saw on any hot row.
	MaxWindowACTs int
	// DRAMPowerMW is the IDD-model DRAM power estimate for the run
	// (Section V-H methodology).
	DRAMPowerMW float64
	// FaultStats is always zero; see its type.
	FaultStats FaultStats
}

// FaultStats is the JSON shape of the counters fault injection, now
// gone, used to report: {"Injected":0,"ByKind":[0,...]} with ten kinds.
// Result keeps it, always zero, only so that its JSON, which aquabench's
// committed digests hash, keeps its bytes until the next change to those
// digests drops it.
type FaultStats struct {
	Injected int64
	ByKind   [10]int64
}

// Run drives the system until all cores finish or simulated time exceeds
// `until` (0 = no limit), and returns the result.
func (s *System) Run(until dram.PS) Result {
	res, _ := s.RunCtx(context.Background(), until)
	return res
}

// ctxCheckInterval is how many issued requests pass between context
// checks in RunCtx: frequent enough that cancellation lands within
// milliseconds of wall-clock, rare enough that the atomic load in
// ctx.Err() never shows up in profiles.
const ctxCheckInterval = 4096

// ctxCheckSimStride is the simulated-time companion to ctxCheckInterval:
// RunCtx also checks ctx at the first request that issues at or after
// each stride boundary. The request stride alone lets a quiet cell (fewer
// than ctxCheckInterval requests in its whole window) run to completion
// without ever observing cancellation; the stride bounds that latency in
// simulated time instead, at the cost of one comparison per request.
const ctxCheckSimStride = 100 * dram.Microsecond

// finished is a finished core's entry in System.next: later than any
// issue time, so Earliest never picks it.
const finished = dram.PS(math.MaxInt64)

// Earliest is the run loop's core selection: an argmin over the cores'
// next-issue times, in which math.MaxInt64 marks a finished core. It
// returns the core that issues next: the earliest time, the lowest index
// on a tie, or -1 when every core has finished. It is exported for the
// perf harness, like IssueN.
func Earliest(next []dram.PS) int {
	root, first := -1, finished
	for i, t := range next {
		if t < first {
			root, first = i, t
		}
	}
	return root
}

// nextIssue is core i's next-issue time, or finished once its stream is
// exhausted.
func (s *System) nextIssue(i int) dram.PS {
	if t, ok := s.Cores[i].NextIssueTime(); ok {
		return t
	}
	return finished
}

// RunCtx is Run with cancellation: the issue loop polls ctx every
// ctxCheckInterval requests AND at the first request at or after each
// ctxCheckSimStride boundary of simulated time, then abandons the
// simulation with ctx.Err() when it has been cancelled. The dual stride
// bounds cancellation latency for both request-dense cells (request
// stride) and quiet ones (simulated-time stride); a pre-cancelled ctx is
// observed before the first request issues. The partial simulation
// state is discarded — a cancelled cell has no result.
//
// The loop's only scheduling state is System.next, the cores' cached
// next-issue times. Each request starts with one Earliest scan of it, in
// (time, core index) order: "earliest time, lowest index on ties". The
// chosen core issues one request, and its next-issue time is written
// back. Background work is never scheduled here: it is serviced, in due
// order, inside Submit -> Advance. See DESIGN.md "Event-driven core &
// time-skip invariants".
func (s *System) RunCtx(ctx context.Context, until dram.PS) (Result, error) {
	if _, err := s.issueLoop(ctx, until, math.MaxInt); err != nil {
		return Result{}, err
	}
	return s.result(until), nil
}

// IssueN runs the RunCtx loop for exactly n requests (or until all cores
// finish), returning how many were issued. It is the perf-harness hook
// for benchmarking the loop without a window bound; figure runs use
// RunCtx.
func (s *System) IssueN(n int) int {
	issued, _ := s.issueLoop(context.Background(), 0, n)
	return issued
}

// issueLoop is the run loop behind RunCtx and IssueN. It issues requests
// until every core finishes, the next issue lies past until (when
// until > 0), budget requests have issued, or ctx ends, and returns how
// many issued plus ctx's error in the last case.
func (s *System) issueLoop(ctx context.Context, until dram.PS, budget int) (int, error) {
	for i := range s.next {
		s.next[i] = s.nextIssue(i)
	}
	issued := 0
	var nextCtxCheck dram.PS // 0: the very first request observes a pre-cancelled ctx
	for issued < budget {
		root := Earliest(s.next)
		if root < 0 {
			break
		}
		at := s.next[root]
		if at >= nextCtxCheck {
			if err := ctx.Err(); err != nil {
				return issued, err
			}
			nextCtxCheck = at + ctxCheckSimStride
		}
		if until > 0 && at > until {
			break
		}
		s.Cores[root].Issue(at, s.Ctrl.Submit)
		s.next[root] = s.nextIssue(root)
		issued++
		if issued%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return issued, err
			}
		}
	}
	return issued, nil
}

func (s *System) result(until dram.PS) Result {
	var end dram.PS
	var instr int64
	for _, c := range s.Cores {
		if c.FinishTime() > end {
			end = c.FinishTime()
		}
		instr += c.InstrRetired()
	}
	if until > 0 && end > until {
		end = until
	}
	res := Result{
		Scheme:    s.Cfg.Scheme,
		SimTime:   end,
		Instr:     instr,
		Requests:  s.Ctrl.Stats().Requests,
		MitStats:  s.Mit.Stats(),
		CtrlStats: s.Ctrl.Stats(),
	}
	if end > 0 {
		cycles := float64(end) / 1e12 * cpu.FreqHz
		res.IPC = float64(instr) / cycles / float64(len(s.Cores))
		res.MigrationsPer64ms = float64(res.MitStats.RowMigrations) *
			float64(64*dram.Millisecond) / float64(end)
	}
	if s.Monitor != nil {
		res.Violated = s.Monitor.Violated()
		_, res.MaxWindowACTs = s.Monitor.MaxWindowCount()
	}
	if end > 0 {
		res.DRAMPowerMW = power.FromStats(power.MicronDDR4(), s.Cfg.Timing, s.Rank.Stats(), end).Total()
	}
	return res
}
