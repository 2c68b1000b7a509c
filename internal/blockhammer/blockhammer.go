// Package blockhammer implements the Blockhammer baseline (Yaglikci et
// al., HPCA 2021): Rowhammer is prevented not by migrating rows but by
// rate-limiting activations, so that no row can be activated more than the
// permitted quota within a refresh window.
//
// Rows whose activation count crosses the blacklisting threshold are
// throttled: subsequent activations are delayed to enforce a minimum
// inter-activation spacing of tREFW/quota. At T_RH=1K the quota is 500
// activations per 64ms, a spacing of 128us — which is what produces the
// paper's 1280x worst-case slowdown for a conflicting two-row pattern
// (Section VII-B) versus ~100ns per round unthrottled.
package blockhammer

import (
	"repro/internal/dram"
	"repro/internal/mitigation"
	"repro/internal/rowmap"
)

// Config parameterizes Blockhammer.
type Config struct {
	// TRH is the Rowhammer threshold; the per-row quota is TRH/2 per
	// refresh window (headroom for the epoch-straddling attack, like
	// AQUA's tracker).
	TRH int64
	// BlacklistThreshold is the activation count after which a row is
	// throttled (the paper's Table VI comparison uses 256).
	BlacklistThreshold int64
}

func (c *Config) fillDefaults() {
	if c.TRH == 0 {
		c.TRH = 1000
	}
	if c.BlacklistThreshold == 0 {
		c.BlacklistThreshold = 256
	}
}

// Quota returns the maximum activations a row may receive per refresh
// window.
func (c Config) Quota() int64 {
	q := c.TRH / 2
	if q < 1 {
		q = 1
	}
	return q
}

// Spacing returns the enforced minimum time between activations of a
// blacklisted row: the refresh window tREFW over the quota.
func (c Config) Spacing(t dram.Timing) dram.PS {
	return t.TREFW / dram.PS(c.Quota())
}

// Engine implements mitigation.Mitigator for Blockhammer. It uses an ideal
// (exact) activation counter per row, as in the paper's Table VI
// comparison, so the measured overhead is a lower bound for the scheme.
// Not safe for concurrent use.
type Engine struct {
	cfg     Config
	geom    dram.Geometry
	spacing dram.PS // cfg.Spacing at the rank's timing

	// counts holds each activated row's ACTs in the current window; a
	// window's ACTs to one row fit in an int32. nextAllowed holds only
	// blacklisted rows.
	counts      rowmap.Map
	nextAllowed map[dram.Row]dram.PS

	stats mitigation.Stats
}

var _ mitigation.Mitigator = (*Engine)(nil)

// New builds a Blockhammer engine for the rank.
func New(rank *dram.Rank, cfg Config) *Engine {
	cfg.fillDefaults()
	return &Engine{
		cfg:         cfg,
		geom:        rank.Geometry(),
		spacing:     cfg.Spacing(rank.Timing()),
		nextAllowed: make(map[dram.Row]dram.PS),
	}
}

// Name implements mitigation.Mitigator.
func (e *Engine) Name() string { return "blockhammer" }

// Translate implements mitigation.Mitigator: no indirection.
func (e *Engine) Translate(row dram.Row, _ dram.PS) mitigation.Translation {
	e.stats.Lookups[mitigation.LookupNone]++
	return mitigation.Translation{PhysRow: row, Class: mitigation.LookupNone}
}

// Delay implements mitigation.Mitigator: blacklisted rows are released at
// the configured spacing.
func (e *Engine) Delay(row dram.Row, now dram.PS) dram.PS {
	if !e.Blacklisted(row) {
		return now
	}
	issue := now
	if na, ok := e.nextAllowed[row]; ok && na > issue {
		issue = na
	}
	e.nextAllowed[row] = issue + e.spacing
	if issue > now {
		e.stats.ThrottleDelay += issue - now
	}
	return issue
}

// OnActivate implements mitigation.Mitigator: count the activation.
func (e *Engine) OnActivate(physRow dram.Row, _ dram.PS) dram.PS {
	n := int64(1)
	if c := e.counts.Ref(physRow); c != nil {
		*c++
		n = int64(*c)
	} else {
		e.counts.Set(physRow, 1)
	}
	if n == e.cfg.BlacklistThreshold {
		e.stats.Mitigations++ // a row entered the blacklist
	}
	return 0
}

// Blacklisted reports whether a row is currently throttled.
func (e *Engine) Blacklisted(row dram.Row) bool {
	n, _ := e.counts.Get(row)
	return int64(n) >= e.cfg.BlacklistThreshold
}

// OnEpoch implements mitigation.Mitigator: the history window rolls over.
func (e *Engine) OnEpoch(_ dram.PS) {
	e.counts.Clear()
	clear(e.nextAllowed)
}

// Stats implements mitigation.Mitigator.
func (e *Engine) Stats() mitigation.Stats { return e.stats }

// StatsReset zeroes the counters.
func (e *Engine) StatsReset() { e.stats = mitigation.Stats{} }
