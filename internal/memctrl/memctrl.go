// Package memctrl implements the memory controller: the component that
// accepts line-granularity requests from the cores, routes them through
// the mitigation scheme's indirection (FPT for AQUA, RIT for RRS), issues
// them to the DRAM rank, feeds every activation the rank commits to the
// scheme, schedules periodic refresh, and drives tracker epochs.
//
// The controller is transaction-level: requests are processed in arrival
// order and the rank's bank state machines resolve row hits, conflicts,
// and bus contention. Channel reservation during row migrations — the
// dominant cost of migration-based mitigations (Section IV-G) — is applied
// by the mitigation engines through dram.Rank.Reserve and surfaces here as
// queueing delay on subsequent requests.
package memctrl

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/invariant"
	"repro/internal/mitigation"
)

// Config parameterizes a controller.
type Config struct {
	// EpochLength is the tracker epoch (default tREFW = 64ms).
	EpochLength dram.PS
	// IdleDrainInterval, when non-zero, gives the mitigation scheme a
	// background-work opportunity (mitigation.Drainer.OnIdle) at most once
	// per interval, modelling work done while the channel is idle.
	IdleDrainInterval dram.PS
	// Invariants, when non-nil, enables runtime invariant checking on
	// this controller and (if not already enabled) the rank's timing
	// shadow checker. Tests turn this on everywhere; release-mode
	// simulation leaves it nil and pays nothing.
	Invariants *invariant.Checker
}

// Stats aggregates controller-level counters.
type Stats struct {
	Requests     int64
	Reads        int64
	Writes       int64
	TotalLatency dram.PS // sum of (completion - arrival) over requests
	MaxLatency   dram.PS
	Refreshes    int64
	Epochs       int64
	// RefreshCollisions is always zero: it counted refreshes re-queued by
	// an injected fault, and fault injection is gone. It stays only so
	// that sim.Result's JSON, which aquabench's committed digests hash,
	// keeps its bytes until the next change to those digests drops it.
	RefreshCollisions int64
}

// AvgLatency returns the mean request latency.
func (s Stats) AvgLatency() dram.PS {
	if s.Requests == 0 {
		return 0
	}
	return s.TotalLatency / s.Requests
}

// Controller binds a rank to a mitigation scheme. Not safe for concurrent
// use; the simulator is single-threaded.
type Controller struct {
	rank *dram.Rank
	mit  mitigation.Mitigator
	cfg  Config

	nextRefresh dram.PS
	nextEpoch   dram.PS
	nextDrain   dram.PS
	// bgNext caches the earliest pending background event, so the
	// per-request Advance is a single comparison when nothing is due (the
	// overwhelmingly common case: tREFI is ~7.8us of simulated time, i.e.
	// thousands of requests apart).
	bgNext  dram.PS
	drainer mitigation.Drainer
	now     dram.PS
	chk     *invariant.Checker

	// acts queues the rows the rank activates until feed hands them to the
	// mitigator. Its backing array is kept across feeds.
	acts []dram.Row

	stats Stats
}

// New builds a controller. A nil mitigator means the unprotected baseline.
func New(rank *dram.Rank, mit mitigation.Mitigator, cfg Config) *Controller {
	if mit == nil {
		mit = mitigation.None{}
	}
	if cfg.EpochLength == 0 {
		cfg.EpochLength = rank.Timing().TREFW
	}
	c := &Controller{
		rank:        rank,
		mit:         mit,
		cfg:         cfg,
		nextRefresh: rank.Timing().TREFI,
		nextEpoch:   cfg.EpochLength,
		nextDrain:   cfg.IdleDrainInterval,
		// Room for a request's ACTs and about eight mitigations' (an AQUA
		// quarantine with an eviction commits up to seven, an RRS re-swap
		// eight) before the queue grows.
		acts: make([]dram.Row, 0, 64),
	}
	if cfg.IdleDrainInterval > 0 {
		c.drainer, _ = mit.(mitigation.Drainer)
	}
	rank.Listen(func(row dram.Row, _ dram.PS) { c.acts = append(c.acts, row) })
	if cfg.Invariants != nil {
		c.chk = cfg.Invariants
		if !rank.InvariantsEnabled() {
			rank.EnableInvariants(cfg.Invariants, rank.Timing())
		}
	}
	c.updateBGNext()
	return c
}

// updateBGNext recomputes the earliest pending background event.
func (c *Controller) updateBGNext() {
	n := min(c.nextEpoch, c.nextRefresh)
	if c.drainer != nil && c.nextDrain < n {
		n = c.nextDrain
	}
	c.bgNext = n
}

// Rank returns the attached rank.
func (c *Controller) Rank() *dram.Rank { return c.rank }

// Mitigator returns the attached mitigation scheme.
func (c *Controller) Mitigator() mitigation.Mitigator { return c.mit }

// Stats returns a snapshot of the controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// Advance processes background work (refresh commands, epoch boundaries,
// idle drains) up to the given time, in due-timestamp order. Submit calls
// it implicitly.
func (c *Controller) Advance(at dram.PS) {
	if at < c.now {
		panic(fmt.Sprintf("memctrl: time went backwards: %d then %d", c.now, at))
	}
	if at < c.bgNext {
		// Nothing due: the starvation invariants hold by construction
		// (every next-event timestamp exceeds at).
		c.now = at
		return
	}
	c.drainBackground(at)
}

// drainBackground services every due background event in timestamp order.
// Ties are broken refresh > epoch > drain (hardware priority: the charge
// model outranks bookkeeping). Servicing strictly by due time matters when
// one inter-request gap spans several events: an epoch boundary due before
// a refresh must observe the pre-refresh bank state, and an idle drain due
// before an epoch must run against the old epoch's tracker.
func (c *Controller) drainBackground(at dram.PS) {
	for {
		const (
			evNone = iota
			evRefresh
			evEpoch
			evDrain
		)
		ev := evNone
		var due dram.PS
		if c.nextRefresh <= at {
			ev, due = evRefresh, c.nextRefresh
		}
		if c.nextEpoch <= at && (ev == evNone || c.nextEpoch < due) {
			ev, due = evEpoch, c.nextEpoch
		}
		if c.drainer != nil && c.nextDrain <= at && (ev == evNone || c.nextDrain < due) {
			ev, due = evDrain, c.nextDrain
		}
		switch ev {
		case evRefresh:
			c.rank.RefreshAll(c.nextRefresh)
			c.nextRefresh += c.rank.Timing().TREFI
			c.stats.Refreshes++
		case evEpoch:
			c.mit.OnEpoch(c.nextEpoch)
			c.nextEpoch += c.cfg.EpochLength
			c.stats.Epochs++
		case evDrain:
			// Background draining: the work happens "behind" the current
			// request, modelling idle-channel use.
			busy := c.drainer.OnIdle(c.nextDrain)
			c.feed(c.nextDrain + busy)
			c.nextDrain += c.cfg.IdleDrainInterval
		default:
			if c.chk != nil {
				// All due background work must have been drained: a
				// starved refresh or epoch would silently skew both the
				// charge model and the tracker guarantee.
				c.chk.Checkf(c.nextRefresh > at, "memctrl", "refresh-starved", at,
					"refresh due at %dps not issued by %dps", c.nextRefresh, at)
				c.chk.Checkf(c.nextEpoch > at, "memctrl", "epoch-starved", at,
					"epoch due at %dps not processed by %dps", c.nextEpoch, at)
			}
			c.updateBGNext()
			c.now = at
			return
		}
	}
}

// Submit processes one line-granularity request to an install (software-
// visible) row arriving at time `at`, and returns its completion time.
// The request flows through: rate-limiter delay -> indirection lookup ->
// DRAM access -> the feed of the request's ACTs to the mitigator (which
// may trigger a mitigation that reserves the channel before the
// completion is reported).
func (c *Controller) Submit(row dram.Row, write bool, at dram.PS) dram.PS {
	c.Advance(at)
	return c.submitOne(row, write, at)
}

// submitOne runs the request pipeline after background work has been
// advanced past the arrival time.
func (c *Controller) submitOne(row dram.Row, write bool, at dram.PS) dram.PS {
	issue := c.mit.Delay(row, at)
	tr := c.mit.Translate(row, issue)
	// Snapshot the reservation horizon before the access: the mitigation
	// triggered below may extend it, but this access must not have
	// overlapped a window reserved by an *earlier* migration.
	var resBefore dram.PS
	if c.chk != nil {
		resBefore = c.rank.ReservedUntil()
	}
	// The ACTs queued so far are the translation's table walk; the
	// access's own ACT, if it makes one, joins behind them.
	walked := len(c.acts)
	done := c.rank.Access(tr.PhysRow, write, issue+tr.Latency)
	if c.chk != nil {
		c.chk.Checkf(done > resBefore, "memctrl", "reserved-channel", done,
			"access to row %d completed at %dps inside a reservation ending %dps",
			tr.PhysRow, done, resBefore)
	}
	if walked > 0 && len(c.acts) > walked {
		// The request's own ACT goes ahead of the walk. Commit order would
		// move recorded results: the 16 ms section VI-C DoS co-run would
		// make 536 mitigations instead of 538.
		own := c.acts[walked]
		copy(c.acts[1:walked+1], c.acts[:walked])
		c.acts[0] = own
	}
	// Mitigative action (if triggered) reserves the channel; the
	// triggering access itself has already completed.
	c.feed(done)

	c.stats.Requests++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	lat := done - at
	c.stats.TotalLatency += lat
	if lat > c.stats.MaxLatency {
		c.stats.MaxLatency = lat
	}
	return done
}

// feed hands the queued ACTs to the mitigator. The first mitigation it
// triggers starts at `at`, each later one when the previous one's busy
// time ends, and the ACTs a mitigation commits join the queue, so the loop
// ends once one mitigation's ACTs stop triggering the next: almost at once
// at the thresholds sim.CheckTRH admits, maybe never below them
// (ROADMAP.md, "Mitigation cascades that end"). The loop indexes because
// the queue grows under it.
func (c *Controller) feed(at dram.PS) {
	for i := 0; i < len(c.acts); i++ {
		at += c.mit.OnActivate(c.acts[i], at)
	}
	c.acts = c.acts[:0]
}

// EpochLength returns the configured tracker epoch.
func (c *Controller) EpochLength() dram.PS { return c.cfg.EpochLength }
