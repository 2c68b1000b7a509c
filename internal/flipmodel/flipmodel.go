// Package flipmodel implements a charge-disturbance model of DRAM rows,
// used to demonstrate *why* victim refresh fails against Half-Double while
// row migration survives it (Figure 1 of the paper).
//
// The model is deliberately simple and physical:
//
//   - opening a row (an activation OR a targeted refresh — electrically the
//     same operation) fully restores that row's own charge and disturbs
//     each distance-1 neighbour by one unit;
//   - a row whose accumulated disturbance exceeds the flip threshold
//     suffers a bit flip;
//   - the periodic auto-refresh restores every row once per refresh window
//     (modelled as a bulk reset at window boundaries).
//
// Under this model the Half-Double attack emerges naturally: heavily
// hammering row A forces the victim-refresh mitigation to repeatedly
// refresh rows A±1, and each of those refreshes disturbs rows A±2 — which
// classic victim refresh never restores. Migration-based mitigations never
// concentrate that many row openings in one neighbourhood, because the
// aggressor is relocated after T_RH/2 activations.
package flipmodel

import "repro/internal/dram"

// Flip records one bit-flip event.
type Flip struct {
	Victim      dram.Row
	Disturbance int64
	At          dram.PS
}

// Model accumulates per-row disturbance. Not safe for concurrent use.
type Model struct {
	geom      dram.Geometry
	threshold int64
	window    dram.PS

	disturb map[dram.Row]int64
	flipped map[dram.Row]bool
	flips   []Flip

	lastWindow int64
}

// New builds a model in which a row flips once it accumulates `threshold`
// disturbance units within one refresh window.
func New(geom dram.Geometry, threshold int64, window dram.PS) *Model {
	if threshold < 1 {
		panic("flipmodel: threshold must be >= 1")
	}
	if window <= 0 {
		panic("flipmodel: window must be positive")
	}
	return &Model{
		geom:      geom,
		threshold: threshold,
		window:    window,
		disturb:   make(map[dram.Row]int64),
		flipped:   make(map[dram.Row]bool),
	}
}

// Attach wires the model to a rank so every committed activation and
// every targeted refresh a mitigation reports to the rank (victim
// refresh's, through dram.Rank.NotifyRefresh) is observed as a row
// opening.
func (m *Model) Attach(r *dram.Rank) {
	r.Listen(m.RowOpened)
	r.ListenRefresh(m.RowOpened)
}

// RowOpened records that a row was opened (activated or refreshed) at the
// given time: its own charge is restored; each distance-1 neighbour is
// disturbed by one unit.
func (m *Model) RowOpened(row dram.Row, at dram.PS) {
	m.rollWindow(at)
	delete(m.disturb, row) // opening restores the row's own charge
	pair, np := m.geom.NeighborPair(row, 1)
	for _, n := range pair[:np] {
		m.disturb[n]++
		if m.disturb[n] >= m.threshold && !m.flipped[n] {
			m.flipped[n] = true
			m.flips = append(m.flips, Flip{Victim: n, Disturbance: m.disturb[n], At: at})
		}
	}
}

// rollWindow applies the periodic auto-refresh: all rows restored at every
// window boundary.
func (m *Model) rollWindow(at dram.PS) {
	w := at / m.window
	if w != m.lastWindow {
		clear(m.disturb)
		m.lastWindow = w
	}
}

// Flips returns all recorded bit flips in order of occurrence.
func (m *Model) Flips() []Flip { return m.flips }

// Flipped reports whether any flip occurred.
func (m *Model) Flipped() bool { return len(m.flips) > 0 }

// Disturbance returns a row's current accumulated disturbance.
func (m *Model) Disturbance(row dram.Row) int64 { return m.disturb[row] }
