package mitigation

import (
	"repro/internal/dram"
	"repro/internal/invariant"
)

// Checked wraps a Mitigator with contract assertions against the given
// checker: translations must stay inside the rank's physical geometry
// with non-negative lookup latency and a valid lookup class, Delay may
// only postpone (never reorder into the past), OnActivate's reported
// channel-busy time must be non-negative, and the cumulative Stats
// counters must be monotone across calls. If the wrapped scheme
// implements Drainer, the wrapper forwards it so the controller's Drainer
// type assertion still succeeds.
func Checked(m Mitigator, geom dram.Geometry, chk *invariant.Checker) Mitigator {
	c := &checked{inner: m, geom: geom, chk: chk}
	if d, ok := m.(Drainer); ok {
		return &checkedDrainer{checked: c, d: d}
	}
	return c
}

type checked struct {
	inner    Mitigator
	geom     dram.Geometry
	chk      *invariant.Checker
	lastStat Stats
	haveStat bool
}

func (c *checked) Name() string { return c.inner.Name() }

func (c *checked) Translate(row dram.Row, now dram.PS) Translation {
	tr := c.inner.Translate(row, now)
	c.chk.Checkf(c.geom.Contains(tr.PhysRow), "mitigation", "translate-range", now,
		"%s translated row %d to physical row %d outside the %d-row rank",
		c.inner.Name(), row, tr.PhysRow, c.geom.Rows())
	c.chk.Checkf(tr.Latency >= 0, "mitigation", "translate-latency", now,
		"%s charged negative lookup latency %dps for row %d", c.inner.Name(), tr.Latency, row)
	c.chk.Checkf(tr.Class >= 0 && tr.Class < NumLookupClasses, "mitigation", "translate-class", now,
		"%s returned out-of-range lookup class %d", c.inner.Name(), tr.Class)
	return tr
}

func (c *checked) Delay(row dram.Row, now dram.PS) dram.PS {
	issue := c.inner.Delay(row, now)
	c.chk.Checkf(issue >= now, "mitigation", "delay-backwards", now,
		"%s scheduled row %d activation at %dps, before request time %dps",
		c.inner.Name(), row, issue, now)
	return issue
}

func (c *checked) OnActivate(physRow dram.Row, at dram.PS) dram.PS {
	busy := c.inner.OnActivate(physRow, at)
	c.chk.Checkf(busy >= 0, "mitigation", "busy-negative", at,
		"%s reported negative channel-busy time %dps", c.inner.Name(), busy)
	c.checkStats(at)
	return busy
}

func (c *checked) OnEpoch(now dram.PS) {
	c.inner.OnEpoch(now)
	c.checkStats(now)
}

func (c *checked) Stats() Stats { return c.inner.Stats() }

// checkStats asserts the cumulative counters never decrease: no scheme
// resets them mid-run, so any drop, a fall of every counter to zero
// included, is a bug.
func (c *checked) checkStats(at dram.PS) {
	s := c.inner.Stats()
	if c.haveStat {
		ok := s.Mitigations >= c.lastStat.Mitigations &&
			s.RowMigrations >= c.lastStat.RowMigrations &&
			s.Evictions >= c.lastStat.Evictions &&
			s.ProactiveDrains >= c.lastStat.ProactiveDrains &&
			s.VictimRefreshes >= c.lastStat.VictimRefreshes &&
			s.ChannelBusy >= c.lastStat.ChannelBusy &&
			s.ThrottleDelay >= c.lastStat.ThrottleDelay &&
			s.TableDRAMAccesses >= c.lastStat.TableDRAMAccesses &&
			s.ReuseViolations >= c.lastStat.ReuseViolations
		for i := range s.Lookups {
			ok = ok && s.Lookups[i] >= c.lastStat.Lookups[i]
		}
		c.chk.Checkf(ok, "mitigation", "stats-monotonic", at,
			"%s stats counter decreased: %+v then %+v", c.inner.Name(), c.lastStat, s)
	}
	c.lastStat = s
	c.haveStat = true
}

// checkedDrainer adds the OnIdle passthrough for schemes that drain in
// the background.
type checkedDrainer struct {
	*checked
	d Drainer
}

func (c *checkedDrainer) OnIdle(now dram.PS) dram.PS {
	busy := c.d.OnIdle(now)
	c.chk.Checkf(busy >= 0, "mitigation", "idle-busy-negative", now,
		"%s reported negative idle-drain time %dps", c.inner.Name(), busy)
	return busy
}
