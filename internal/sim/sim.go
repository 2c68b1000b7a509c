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
	"repro/internal/event"
	"repro/internal/fault"
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

// CheckTRH rejects a Rowhammer threshold below 2: the security monitor
// counts to T_RH and the mitigations act at T_RH/2, so a smaller
// threshold has no meaning.
func CheckTRH(trh int64) error {
	if trh < 2 {
		return fmt.Errorf("T_RH %d: must be >= 2", trh)
	}
	return nil
}

// Config parameterizes a system build.
type Config struct {
	Geometry dram.Geometry
	Timing   dram.Timing
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
	// Faults, when non-nil, threads the deterministic fault injector
	// through every layer the same way: the rank (stuck rows, ECC flips),
	// the controller (refresh collisions), and the AQUA engine (RQA
	// overflow, migration aborts, FPT-cache poisoning, tracker
	// corruption). Nil costs one pointer test per opportunity.
	Faults *fault.Injector
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
	if c.Geometry == (dram.Geometry{}) {
		c.Geometry = dram.Baseline()
	}
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

	// cal is the system's event calendar: core next-issue events live in
	// its indexed heap, and the controller keeps its refresh/epoch/drain
	// lanes armed (see internal/event). Owned by the run loop; reused
	// across runs so the steady-state request path stays allocation-free.
	// Deliberately not `// guarded by` anything: a System is confined to
	// one grid worker (the result cache exchanges Result values, never
	// live Systems), so the calendar is never shared.
	cal event.Calendar

	// Blocked-bank overlap scheduler state (DESIGN.md "Blocked-bank
	// overlap scheduler"): a core whose next request targets a blocked
	// bank and whose issue time lands at or past the bank's expiry is
	// parked — dropped from the issue heap onto the bank's intrusive
	// list — and re-enters when the bank's ClassBankExpiry event fires.
	// parkedNext[i] links core i to the next parked core on the same bank
	// (-1 ends the list); parkedWake[i] is core i's re-entry time, its
	// NextIssueTime unchanged, which is what keeps every Submit at its
	// original time and order. bankParked[b] heads bank b's list;
	// bankMinWake[b] is the earliest expiry event pushed for b while its
	// list is non-empty (stale once the list empties — the next park
	// pushes unconditionally). Invariant: every parked core is covered by
	// a pending ClassBankExpiry event for its bank at a time <= its wake,
	// so no core can be woken late; duplicate expiry events pop as
	// no-ops against an empty list.
	parkedNext  []int32
	parkedWake  []dram.PS
	bankParked  []int32
	bankMinWake []dram.PS
	// parkSpan is the profitability gate: a core is only parked when it
	// leaves the issue heap for at least this long (next - at). A park
	// replaces one ReplaceIndexedMin with an expiry push/pop plus an
	// issue push — roughly two extra calendar operations — so
	// sub-window-scale parks cost more heap traffic than the calmer
	// Horizon saves (measured: gating short parks out is worth ~10% of
	// the full lbm 4-core cell). 4x tRC keeps incidental streaming-bank
	// conflicts on the heap while genuinely contended cores still park.
	parkSpan dram.PS
	// parks counts successful tryPark calls across the system's lifetime;
	// noPark disables parking altogether. Both exist for the park tests:
	// the counter proves a scenario exercised the scheduler, the switch
	// produces the reference run the parked run must match bit-for-bit.
	parks  int64
	noPark bool
}

// VisibleRegion returns the software-visible address region for a
// configuration, consistent across all schemes *and thresholds* so that
// workloads touch identical rows everywhere: the region excludes the rows
// the most demanding layout would reserve — AQUA's memory-mapped mode at
// an effective threshold of 1, whose RQA is the Table III maximum (2.2% of
// memory).
func VisibleRegion(cfg Config) workload.Region {
	cfg.fillDefaults()
	visible := core.VisibleRowsPerBankFor(cfg.Geometry, cfg.Timing,
		core.Config{TRH: 2, Mode: core.ModeMemMapped})
	return workload.Region{Geom: cfg.Geometry, VisibleRowsPerBank: visible}
}

// NewSystem wires a system; streams[i] drives core i. len(streams) must
// equal cfg.Cores.
func NewSystem(cfg Config, streams []cpu.Stream) *System {
	cfg.fillDefaults()
	if len(streams) != cfg.Cores {
		panic(fmt.Sprintf("sim: %d streams for %d cores", len(streams), cfg.Cores))
	}
	rank := dram.NewRank(cfg.Geometry, cfg.Timing)
	if cfg.Faults != nil {
		rank.EnableFaults(cfg.Faults)
	}

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
			Seed:            cfg.Seed,
			Tracker:         cfg.Tracker.build(cfg.Geometry, cfg.Timing, max(trh/2, 1)),
			BloomGroupSize:  cfg.BloomGroupSize,
			FPTCacheEntries: cfg.FPTCacheEntries,
			ProactiveDrain:  cfg.ProactiveDrain,
			Invariants:      cfg.Invariants,
			Faults:          cfg.Faults,
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
			Tracker: cfg.Tracker.build(cfg.Geometry, cfg.Timing, max(cfg.TRH/rrs.SwapDivisor, 1)),
		})
	case SchemeBlockhammer:
		s.Mit = blockhammer.New(rank, blockhammer.Config{TRH: cfg.TRH})
	case SchemeVictimRefresh:
		s.Mit = vrefresh.New(rank, vrefresh.Config{
			TRH:     cfg.TRH,
			Tracker: cfg.Tracker.build(cfg.Geometry, cfg.Timing, max(cfg.TRH/2, 1)),
		})
	default:
		panic(fmt.Sprintf("sim: unknown scheme %d", cfg.Scheme))
	}

	if cfg.Invariants != nil {
		// Wrap the scheme in the mitigation-contract checker; s.Aqua keeps
		// pointing at the concrete engine for layout/breakdown queries.
		s.Mit = mitigation.Checked(s.Mit, cfg.Geometry, cfg.Invariants)
	}

	ctrlCfg := memctrl.Config{EpochLength: cfg.EpochLength, Invariants: cfg.Invariants, Faults: cfg.Faults}
	if cfg.ProactiveDrain {
		ctrlCfg.IdleDrainInterval = 10 * dram.Microsecond
	}
	s.Ctrl = memctrl.New(rank, s.Mit, ctrlCfg)
	s.Ctrl.AttachCalendar(&s.cal)
	s.Cores = make([]*cpu.Core, cfg.Cores)
	for i := range s.Cores {
		s.Cores[i] = cpu.New(i, streams[i], cfg.CoreCfg)
	}
	s.parkSpan = 4 * cfg.Timing.TRC
	s.parkedNext = make([]int32, cfg.Cores)
	s.parkedWake = make([]dram.PS, cfg.Cores)
	s.bankParked = make([]int32, cfg.Geometry.Banks)
	s.bankMinWake = make([]dram.PS, cfg.Geometry.Banks)
	return s
}

// NewSystemE is NewSystem with validation and panic containment: malformed
// configurations (a T_RH below 2 once defaulted, bad geometry/timing, a
// stream/core mismatch, a layout the RQA arithmetic rejects) come back as
// errors instead of process aborts, so a bad grid cell fails as a
// CellError. The library panics in analytic/layout code stay — NewSystemE
// converts them at this boundary.
func NewSystemE(cfg Config, streams []cpu.Stream) (*System, error) {
	probe := cfg
	probe.fillDefaults()
	if err := CheckTRH(probe.TRH); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if len(streams) != probe.Cores {
		return nil, fmt.Errorf("sim: %d streams for %d cores", len(streams), probe.Cores)
	}
	if err := probe.Geometry.Validate(); err != nil {
		return nil, err
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
	// FaultStats counts the faults injected into this run (all-zero when
	// no injector was attached).
	FaultStats fault.Stats
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
// RunCtx also checks ctx at the first calendar event at or after each
// stride boundary. The request stride alone lets a quiet cell (fewer
// than ctxCheckInterval requests in its whole window) run to completion
// without ever observing cancellation; the stride bounds that latency in
// simulated time instead. 100 us is ~13 refresh intervals — foreign
// events are far denser than the stride, so the first event past a
// boundary is never far past it, and the check stays off the per-request
// path.
const ctxCheckSimStride = 100 * dram.Microsecond

// resetEvents rebuilds the calendar for a fresh run: the controller
// re-arms its background lanes and every unfinished core contributes its
// next-issue event. The heap's backing slice survives Reset, so repeat
// runs allocate nothing.
func (s *System) resetEvents() {
	s.cal.Reset()
	s.Ctrl.PublishEvents()
	for i, c := range s.Cores {
		if t, ok := c.NextIssueTime(); ok {
			s.cal.Push(event.Event{Time: t, Class: event.ClassCoreIssue, Index: int32(i)})
		}
	}
	for b := range s.bankParked {
		s.bankParked[b] = -1
	}
	// A reused system can start with banks still inside their activation
	// windows from the previous run; publish those expiries so the first
	// parks have events to ride.
	s.Rank.PublishExpiries(&s.cal, 0)
}

// tryPark parks the root core (which must have a queued request and
// next-issue time `next`) when its target bank is still blocked at `at`
// and will not free before the core issues anyway: next >= BankReadyAt.
// The park is order-preserving — the core re-enters the issue heap at
// exactly `next` when the bank's expiry event fires — so the stream of
// Submit calls is bit-identical to leaving the core in the heap; what
// changes is only who carries the wake-up (one expiry event per bank
// instead of one heap entry per blocked core), which is what lets the
// surviving root batch issues against a calmer Horizon. Reports whether
// the core was parked.
func (s *System) tryPark(ci int32, at, next dram.PS) bool {
	if next-at < s.parkSpan || s.noPark {
		// Too-short parks thrash the calendar (see parkSpan); this
		// compare is also what keeps tryPark nearly free on streaming
		// workloads whose issue cadence never reaches the gate.
		return false
	}
	row, ok := s.Cores[ci].QueuedRow()
	if !ok {
		return false
	}
	b := s.Cfg.Geometry.BankOf(row)
	ready := s.Rank.BankReadyAt(b)
	if ready <= at || next < ready {
		// Bank already free, or the core issues before the window ends
		// (the controller charges that stall inside Submit): the core
		// must stay on the issue heap.
		return false
	}
	if s.bankParked[b] < 0 {
		s.cal.Push(event.Event{Time: next, Class: event.ClassBankExpiry, Index: int32(b)})
		s.bankMinWake[b] = next
	} else if next < s.bankMinWake[b] {
		s.cal.Push(event.Event{Time: next, Class: event.ClassBankExpiry, Index: int32(b)})
		s.bankMinWake[b] = next
	}
	s.parkedNext[ci] = s.bankParked[b]
	s.parkedWake[ci] = next
	s.bankParked[b] = ci
	s.parks++
	return true
}

// wakeBank re-enters every core parked on bank b at its recorded wake
// time. The firing event's time is <= every parked wake (the park
// invariant), and ClassBankExpiry orders before ClassCoreIssue at equal
// timestamps, so a woken core is back in the heap before its issue slot
// comes up. Stale duplicate events find an empty list and do nothing.
func (s *System) wakeBank(b int32) {
	for i := s.bankParked[b]; i >= 0; {
		next := s.parkedNext[i]
		s.cal.Push(event.Event{Time: s.parkedWake[i], Class: event.ClassCoreIssue, Index: i})
		i = next
	}
	s.bankParked[b] = -1
}

// issueHorizon returns the batching bound for the current heap root: the
// time of the earliest foreign event. The root's core may issue freely
// at times strictly below it; an issue time at or past it goes back
// through the calendar, whose (time, class, index) order resolves the
// tie exactly as the per-request loop would have.
func (s *System) issueHorizon() dram.PS {
	if hz, ok := s.cal.Horizon(); ok {
		return hz.Time
	}
	return math.MaxInt64
}

// RunCtx is Run with cancellation: the issue loop polls ctx every
// ctxCheckInterval requests AND at the first calendar event at or after
// each ctxCheckSimStride boundary of simulated time, then abandons the
// simulation with ctx.Err() when it has been cancelled. The dual stride
// bounds cancellation latency for both request-dense cells (request
// stride) and quiet ones (simulated-time stride); a pre-cancelled ctx is
// observed before the first event is processed. The partial simulation
// state is discarded — a cancelled cell has no result.
//
// The loop is event-driven: the calendar's indexed heap orders per-core
// next-issue events by (time, core index) — bit-identical to the old
// linear scan's "earliest time, lowest index on ties" — and the fast path
// batches a run of same-core issues that provably stay ahead of the next
// foreign event (Horizon), so quiet spans between refreshes cost one
// bound computation instead of a heap fix-up per request. Background
// events are never popped here: they are serviced, in due order, inside
// Submit -> Advance at their due timestamps, exactly as before; the lanes
// only bound the batch. See DESIGN.md "Event-driven core & time-skip
// invariants".
//
//detertaint:root
func (s *System) RunCtx(ctx context.Context, until dram.PS) (Result, error) {
	if _, err := s.issueLoop(ctx, until, math.MaxInt); err != nil {
		return Result{}, err
	}
	return s.result(until), nil
}

// IssueN runs the RunCtx loop for exactly n requests (or until all cores
// finish), returning how many were issued. It is the perf-harness hook
// for benchmarking the selection path at arbitrary core counts; figure
// runs use RunCtx.
func (s *System) IssueN(n int) int {
	issued, _ := s.issueLoop(context.Background(), 0, n)
	return issued
}

// issueLoop is the run loop behind RunCtx and IssueN. It issues requests
// until every core finishes, the next event lies past until (when
// until > 0), budget requests have issued, or ctx ends, and returns how
// many issued plus ctx's error in the last case.
func (s *System) issueLoop(ctx context.Context, until dram.PS, budget int) (int, error) {
	s.resetEvents()
	issued := 0
	var nextCtxCheck dram.PS // 0: the very first event observes a pre-cancelled ctx
	for issued < budget {
		root, ok := s.cal.MinIndexed()
		if !ok {
			break
		}
		if root.Time >= nextCtxCheck {
			if err := ctx.Err(); err != nil {
				return issued, err
			}
			nextCtxCheck = root.Time + ctxCheckSimStride
		}
		if until > 0 && root.Time > until {
			break
		}
		if root.Class == event.ClassBankExpiry {
			s.cal.DropIndexedMin()
			s.wakeBank(root.Index)
			continue
		}
		limit := s.issueHorizon()
		if until > 0 && until+1 < limit {
			// The run bound caps the batch too: issues AT until are still
			// in-window, the first one past it ends the run.
			limit = until + 1
		}
		n, next, more := s.Cores[root.Index].IssueRun(root.Time, limit,
			min(ctxCheckInterval-issued%ctxCheckInterval, budget-issued), s.Ctrl.Submit)
		issued += n
		switch {
		case !more:
			s.cal.DropIndexedMin()
		case s.tryPark(root.Index, root.Time, next):
			s.cal.DropIndexedMin()
		default:
			s.cal.ReplaceIndexedMin(next)
		}
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
		freq := float64(s.Cfg.CoreCfg.FreqHz)
		if freq == 0 {
			freq = 3e9
		}
		cycles := float64(end) / 1e12 * freq
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
	res.FaultStats = s.Cfg.Faults.Stats()
	return res
}
