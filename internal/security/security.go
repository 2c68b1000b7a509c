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
	"slices"

	"repro/internal/dram"
	"repro/internal/rowmap"
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

	// hot maps each row under scrutiny to its exact timestamp queue in
	// queues. A row is promoted to hot once its coarse per-window count
	// crosses trackFloor, and stays hot until Reset.
	hot        rowmap.Map
	queues     []actQueue
	trackFloor int

	// coarse per-half-window counts used only to decide promotion; counts
	// are kept for the current and previous half windows, so any row that
	// could reach trackFloor activations in a full window is promoted no
	// later than activation number trackFloor.
	halfIdx  int64
	cur      rowmap.Map
	prev     rowmap.Map
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
	return &Monitor{trh: trh, window: window, trackFloor: floor}
}

// actQueue is one hot row's exact activation timestamps: ts[head:] are
// the ACTs inside the sliding window, in time order, and peak is the
// largest window count a tracked ACT has seen.
type actQueue struct {
	ts   []dram.PS
	head int
	peak int
}

// record adds an ACT at time at and returns the ACTs left in the window
// ending at at. A late ACT is inserted in order from the back, so the
// trim stays exact. The trim advances head; once the dead prefix passes
// half the slice, the live ACTs move to its front, so append reuses the
// slice's capacity instead of reallocating as the window slides.
func (q *actQueue) record(at, window dram.PS) int {
	q.ts = append(q.ts, at)
	for j := len(q.ts) - 1; j > q.head && q.ts[j-1] > at; j-- {
		q.ts[j-1], q.ts[j] = q.ts[j], q.ts[j-1]
	}
	cutoff := at - window
	for q.head < len(q.ts) && q.ts[q.head] <= cutoff {
		q.head++
	}
	if q.head > len(q.ts)/2 {
		q.ts = q.ts[:copy(q.ts, q.ts[q.head:])]
		q.head = 0
	}
	return len(q.ts) - q.head
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
	counts := &m.cur
	switch {
	case half == m.halfIdx:
	case half == m.halfIdx+1:
		m.prev, m.cur = m.cur, m.prev
		m.cur.Clear()
		m.halfIdx = half
	case half > m.halfIdx+1:
		m.prev.Clear()
		m.cur.Clear()
		m.halfIdx = half
	case half == m.halfIdx-1:
		counts = &m.prev
	default:
		panic(fmt.Sprintf("security: time went backwards: %d then %d", m.halfIdx, half))
	}

	if i, tracked := m.hot.Get(row); tracked {
		q := &m.queues[i]
		n := q.record(at, m.window)
		if n > q.peak {
			q.peak = n
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

	if c := counts.Ref(row); c != nil {
		*c++
	} else {
		counts.Set(row, 1)
	}
	cur, _ := m.cur.Get(row)
	prev, _ := m.prev.Get(row)
	if int(cur+prev) >= m.trackFloor {
		// Promote: seed the exact queue with the activation we know about.
		// Earlier activations are not reconstructed; the promotion floor
		// (trh/4) means at most trh/2 activations across two half-windows
		// are unaccounted, so the monitor remains sound for detecting
		// violations (it can only undercount, never overcount) while the
		// MaxWindowCount lower bound stays within trh/2 of truth.
		m.hot.Set(row, int32(len(m.queues)))
		m.queues = append(m.queues, actQueue{ts: []dram.PS{at}})
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
	rows := make([]dram.Row, 0, m.hot.Len())
	m.hot.Range(func(r dram.Row, _ int32) bool {
		rows = append(rows, r)
		return true
	})
	slices.Sort(rows)
	return rows
}

// PeakWindowCount returns the peak sliding-window count seen for a row (0
// if the row never became hot).
func (m *Monitor) PeakWindowCount(row dram.Row) int {
	if i, ok := m.hot.Get(row); ok {
		return m.queues[i].peak
	}
	return 0
}

// TotalACTs returns the number of activations observed.
func (m *Monitor) TotalACTs() int64 { return m.acts }

// Threshold returns the configured T_RH.
func (m *Monitor) Threshold() int { return m.trh }

// Reset clears all state (between experiments).
func (m *Monitor) Reset() {
	m.hot.Clear()
	clear(m.queues)
	m.queues = m.queues[:0]
	m.cur.Clear()
	m.prev.Clear()
	m.halfIdx = 0
	m.maxCount = 0
	m.maxRow = 0
	m.violations = nil
	m.acts = 0
}
