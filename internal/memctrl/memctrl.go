// Package memctrl implements the memory controller: the component that
// accepts line-granularity requests from the cores, routes them through
// the mitigation scheme's indirection (FPT for AQUA, RIT for RRS), issues
// them to the DRAM rank, schedules periodic refresh, and drives tracker
// epochs.
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
	// DisableRefresh turns off periodic refresh (micro-benchmarks only).
	DisableRefresh bool
	// IdleDrainInterval, when non-zero, gives the mitigation scheme a
	// background-work opportunity (Drainer.OnIdle) at most once per
	// interval, modelling work done while the channel is idle.
	IdleDrainInterval dram.PS
	// Invariants, when non-nil, enables runtime invariant checking on
	// this controller and (if not already enabled) the rank's timing
	// shadow checker. Tests turn this on everywhere; release-mode
	// simulation leaves it nil and pays nothing.
	Invariants *invariant.Checker
}

// Drainer is the optional background-work hook a mitigation scheme may
// implement (AQUA's proactive quarantine draining, Section IV-D).
type Drainer interface {
	// OnIdle performs at most one unit of background work at the given
	// time and returns the channel time it consumed.
	OnIdle(now dram.PS) dram.PS
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
	drainer Drainer
	now     dram.PS
	chk     *invariant.Checker

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
	}
	if cfg.IdleDrainInterval > 0 {
		c.drainer, _ = mit.(Drainer)
	}
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
	n := c.nextEpoch
	if !c.cfg.DisableRefresh && c.nextRefresh < n {
		n = c.nextRefresh
	}
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
		if !c.cfg.DisableRefresh && c.nextRefresh <= at {
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
			c.drainer.OnIdle(c.nextDrain)
			c.nextDrain += c.cfg.IdleDrainInterval
		default:
			if c.chk != nil {
				// All due background work must have been drained: a
				// starved refresh or epoch would silently skew both the
				// charge model and the tracker guarantee.
				if !c.cfg.DisableRefresh {
					c.chk.Checkf(c.nextRefresh > at, "memctrl", "refresh-starved", at,
						"refresh due at %dps not issued by %dps", c.nextRefresh, at)
				}
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
// DRAM access -> tracker accounting (which may trigger a mitigation that
// reserves the channel before the completion is reported).
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
	done, activated := c.rank.Access(tr.PhysRow, write, issue+tr.Latency)
	if c.chk != nil {
		c.chk.Checkf(done > resBefore, "memctrl", "reserved-channel", done,
			"access to row %d completed at %dps inside a reservation ending %dps",
			tr.PhysRow, done, resBefore)
	}
	if activated {
		// Mitigative action (if triggered) reserves the channel; the
		// triggering access itself has already completed.
		c.mit.OnActivate(tr.PhysRow, done)
	}

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

// EpochLength returns the configured tracker epoch.
func (c *Controller) EpochLength() dram.PS { return c.cfg.EpochLength }
