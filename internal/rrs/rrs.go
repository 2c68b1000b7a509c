// Package rrs implements Randomized Row-Swap (Saileshwar et al., ASPLOS
// 2022), the row-migration baseline AQUA is compared against throughout
// the paper.
//
// RRS mitigates Rowhammer by swapping an aggressor row with a randomly
// selected row once the aggressor accrues T_RH/6 activations — the
// threshold is artificially lowered (vs AQUA's T_RH/2) because RRS's
// security rests on the attacker not guessing the swap destination
// (birthday-paradox bound, Section II-F). The Row Indirection Table (RIT)
// must live entirely in SRAM: a memory-mapped RIT would leak destinations
// through access latency (footnote in Section V).
//
// Cost model per the paper's Figure 6 discussion: a first-time swap of an
// unswapped row moves two rows (2 row migrations, ~2.74us of channel
// time); a repeat mitigation of an already-swapped row must dissolve the
// existing pair and re-swap, moving four rows (~5.48us). Lazy unswapping
// of stale pairs at epoch boundaries happens off the critical path and is
// not charged to the channel (matching the analytical model of Appendix A,
// which counts only trigger-driven migrations).
package rrs

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/mitigation"
	"repro/internal/rng"
	"repro/internal/rowmap"
	"repro/internal/tracker"
)

// SwapDivisor is the paper's threshold ratio: rows swap every T_RH/6
// activations.
const SwapDivisor = 6

// Config parameterizes an RRS engine.
type Config struct {
	// TRH is the Rowhammer threshold; swaps trigger every TRH/6
	// activations.
	TRH int64
	// Tracker overrides the aggressor tracker; nil uses per-bank
	// Misra-Gries provisioned for the swap threshold.
	Tracker tracker.Tracker
	// Seed drives destination randomization.
	Seed uint64
	// MaxSwappableRows caps the randomly chosen destination space; 0 means
	// the whole rank. Tests use it to force pair collisions.
	MaxSwappableRows int
}

func (c *Config) fillDefaults() {
	if c.TRH == 0 {
		c.TRH = 1000
	}
}

// SwapThreshold returns TRH/6 (at least 1).
func (c Config) SwapThreshold() int64 {
	t := c.TRH / SwapDivisor
	if t < 1 {
		t = 1
	}
	return t
}

// Engine is the RRS mitigation engine for one rank. It implements
// mitigation.Mitigator. Not safe for concurrent use.
type Engine struct {
	cfg  Config
	rank *dram.Rank
	geom dram.Geometry
	rnd  *rng.Rand
	art  tracker.Tracker

	// partner maps each swapped row to the row its content currently
	// resides in; unswapped rows are absent. Swaps are symmetric:
	// partner[partner[x]] == x, so the map holds two entries per pair. It
	// grows while pairs accumulate and keeps its size across epochs. In
	// hardware this is the RIT's content; the RIT's CAT organisation is
	// charged in storage (analytic.RRSRITBytes), not simulated.
	partner rowmap.Map

	stats mitigation.Stats
}

var _ mitigation.Mitigator = (*Engine)(nil)

// New builds an RRS engine bound to a rank.
func New(rank *dram.Rank, cfg Config) *Engine {
	cfg.fillDefaults()
	geom := rank.Geometry()
	e := &Engine{
		cfg:  cfg,
		rank: rank,
		geom: geom,
		rnd:  rng.New(cfg.Seed ^ 0x5272735f), // "rrs_"
	}
	e.art = cfg.Tracker
	if e.art == nil {
		e.art = tracker.NewMisraGries(geom, cfg.SwapThreshold(),
			tracker.ProvisionEntries(rank.Timing(), cfg.SwapThreshold()))
	}
	return e
}

// Name implements mitigation.Mitigator.
func (e *Engine) Name() string { return "rrs" }

// SwappedPairs returns the number of currently swapped pairs.
func (e *Engine) SwappedPairs() int { return e.partner.Len() / 2 }

// Partner returns where install row x's content currently lives.
func (e *Engine) Partner(x dram.Row) (dram.Row, bool) {
	p, ok := e.partner.Get(x)
	return dram.Row(p), ok
}

// Tracker exposes the engine's tracker (for tests).
func (e *Engine) Tracker() tracker.Tracker { return e.art }

// Translate implements mitigation.Mitigator: a constant-latency SRAM
// lookup in the RIT.
func (e *Engine) Translate(row dram.Row, _ dram.PS) mitigation.Translation {
	if !e.geom.Contains(row) {
		panic(fmt.Sprintf("rrs: translate of row %d outside geometry", row))
	}
	phys := row
	if p, ok := e.Partner(row); ok {
		phys = p
	}
	e.stats.Lookups[mitigation.LookupSRAM]++
	return mitigation.Translation{PhysRow: phys, Latency: mitigation.SRAMLatency, Class: mitigation.LookupSRAM}
}

// Delay implements mitigation.Mitigator; RRS never throttles.
func (e *Engine) Delay(_ dram.Row, now dram.PS) dram.PS { return now }

// OnActivate implements mitigation.Mitigator: the tracker counts the
// activation and a row that crosses the swap threshold is swapped. The
// controller calls it for the ACTs of the swaps' own row streams too.
func (e *Engine) OnActivate(physRow dram.Row, at dram.PS) dram.PS {
	if e.art.RecordACT(physRow) {
		return e.mitigate(physRow, at)
	}
	return 0
}

// mitigate swaps the install row whose content occupies physRow with a
// random destination.
func (e *Engine) mitigate(physRow dram.Row, at dram.PS) dram.PS {
	// Map the hammered physical row back to the install row it holds.
	install := physRow
	if p, ok := e.Partner(physRow); ok {
		install = p
	}
	e.stats.Mitigations++
	t := at

	// Repeat mitigation of a swapped row: dissolve the existing pair first
	// (two additional row moves; the 4x case of Section IV-F).
	if p, ok := e.Partner(install); ok {
		t = e.moveRows(install, p, t)
		e.unlink(install, p)
	}

	dest := e.pickDestination(install)
	t = e.moveRows(install, dest, t)
	e.link(install, dest)

	e.rank.Reserve(t)
	busy := t - at
	e.stats.ChannelBusy += busy
	return busy
}

// pickDestination draws a random unswapped row different from x. If the
// draw repeatedly lands on swapped rows (pathologically full RIT), the
// last candidate's pair is dissolved silently — provisioned configurations
// never need this.
func (e *Engine) pickDestination(x dram.Row) dram.Row {
	space := e.geom.Rows()
	if e.cfg.MaxSwappableRows > 0 && e.cfg.MaxSwappableRows < space {
		space = e.cfg.MaxSwappableRows
	}
	var cand dram.Row
	for try := 0; try < 16; try++ {
		cand = dram.Row(e.rnd.Intn(space))
		if _, swapped := e.Partner(cand); cand != x && !swapped {
			return cand
		}
	}
	if cand == x {
		cand = dram.Row((int(x) + 1) % space)
	}
	if p, ok := e.Partner(cand); ok {
		e.unlink(cand, p)
	}
	return cand
}

// moveRows models the channel cost of exchanging two rows through the
// controller's swap buffers: two row reads plus two row writes (~2.74us).
func (e *Engine) moveRows(a, b dram.Row, at dram.PS) dram.PS {
	t := e.rank.StreamRow(a, false, at)
	t = e.rank.StreamRow(b, false, t)
	t = e.rank.StreamRow(a, true, t)
	t = e.rank.StreamRow(b, true, t)
	e.stats.RowMigrations += 2
	return t
}

func (e *Engine) link(a, b dram.Row) {
	e.partner.Set(a, int32(b))
	e.partner.Set(b, int32(a))
}

func (e *Engine) unlink(a, b dram.Row) {
	e.partner.Delete(a)
	e.partner.Delete(b)
}

// OnEpoch implements mitigation.Mitigator: the tracker resets and stale
// pairs are dissolved lazily off the critical path (uncharged, per the
// Appendix-A accounting).
func (e *Engine) OnEpoch(_ dram.PS) {
	e.art.Reset()
	e.partner.Clear()
}

// Stats implements mitigation.Mitigator.
func (e *Engine) Stats() mitigation.Stats { return e.stats }
