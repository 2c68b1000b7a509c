// Package vrefresh implements the classic victim-refresh mitigation: when
// the tracker flags an aggressor row, the rows adjacent to it are
// refreshed to restore their charge (Section II-D).
//
// The package exists primarily as the foil in the paper's security story:
// victim refresh stops classic single- and double-sided Rowhammer but (a)
// requires knowledge of the DRAM-internal row mapping and (b) is defeated
// by Half-Double, where the mitigating refreshes of distance-1 rows
// themselves disturb rows at distance 2 (Figure 1a). The engine reports
// each mitigating refresh to the rank (dram.Rank.NotifyRefresh), where the
// charge model in internal/flipmodel observes it and reproduces the
// Half-Double effect; configuring RefreshDistance > 1 demonstrates the
// paper's observation that refreshing further neighbours merely pushes the
// attack to distance N+1.
package vrefresh

import (
	"repro/internal/dram"
	"repro/internal/mitigation"
	"repro/internal/tracker"
)

// Config parameterizes victim refresh.
type Config struct {
	// TRH is the Rowhammer threshold; victims are refreshed every TRH/2
	// activations of an aggressor.
	TRH int64
	// RefreshDistance refreshes neighbours at distances 1..RefreshDistance
	// (default 1, the classic scheme).
	RefreshDistance int
	// Tracker overrides the aggressor tracker.
	Tracker tracker.Tracker
}

func (c *Config) fillDefaults() {
	if c.TRH == 0 {
		c.TRH = 1000
	}
	if c.RefreshDistance == 0 {
		c.RefreshDistance = 1
	}
}

// EffectiveThreshold returns TRH/2 (at least 1).
func (c Config) EffectiveThreshold() int64 {
	t := c.TRH / 2
	if t < 1 {
		t = 1
	}
	return t
}

// Engine implements mitigation.Mitigator for victim refresh. Not safe for
// concurrent use.
type Engine struct {
	cfg   Config
	rank  *dram.Rank
	geom  dram.Geometry
	art   tracker.Tracker
	stats mitigation.Stats
}

var _ mitigation.Mitigator = (*Engine)(nil)

// New builds a victim-refresh engine bound to a rank.
func New(rank *dram.Rank, cfg Config) *Engine {
	cfg.fillDefaults()
	e := &Engine{cfg: cfg, rank: rank, geom: rank.Geometry()}
	e.art = cfg.Tracker
	if e.art == nil {
		e.art = tracker.NewMisraGries(e.geom, cfg.EffectiveThreshold(),
			tracker.ProvisionEntries(rank.Timing(), cfg.EffectiveThreshold()))
	}
	return e
}

// Name implements mitigation.Mitigator.
func (e *Engine) Name() string { return "victim-refresh" }

// Translate implements mitigation.Mitigator: no indirection.
func (e *Engine) Translate(row dram.Row, _ dram.PS) mitigation.Translation {
	e.stats.Lookups[mitigation.LookupNone]++
	return mitigation.Translation{PhysRow: row, Class: mitigation.LookupNone}
}

// Delay implements mitigation.Mitigator; no throttling.
func (e *Engine) Delay(_ dram.Row, now dram.PS) dram.PS { return now }

// OnActivate implements mitigation.Mitigator: refresh the neighbours when
// the tracker flags the row.
func (e *Engine) OnActivate(physRow dram.Row, at dram.PS) dram.PS {
	if !e.art.RecordACT(physRow) {
		return 0
	}
	e.stats.Mitigations++
	t := at
	trc := e.rank.Timing().TRC
	for d := 1; d <= e.cfg.RefreshDistance; d++ {
		pair, n := e.geom.NeighborPair(physRow, d)
		for _, victim := range pair[:n] {
			// A targeted row refresh is an activate+precharge of the
			// victim: one tRC of bank time.
			t += trc
			e.stats.VictimRefreshes++
			e.rank.NotifyRefresh(victim, t)
		}
	}
	e.rank.Reserve(t)
	busy := t - at
	e.stats.ChannelBusy += busy
	return busy
}

// OnEpoch implements mitigation.Mitigator.
func (e *Engine) OnEpoch(_ dram.PS) { e.art.Reset() }

// Stats implements mitigation.Mitigator.
func (e *Engine) Stats() mitigation.Stats { return e.stats }
