// Package mitigation defines the contract between the memory controller
// and a Rowhammer mitigation scheme. Every scheme in this repository —
// AQUA (internal/core), RRS (internal/rrs), Blockhammer
// (internal/blockhammer), victim refresh (internal/vrefresh), and the
// do-nothing baseline — implements Mitigator.
//
// The controller consults the mitigator at three points:
//
//  1. Translate, before issuing a memory access, to map the
//     software-visible (install) row to its current physical location and
//     charge any indirection-lookup latency;
//  2. Delay, before issuing an activation, so rate-limiting schemes can
//     postpone it;
//  3. OnActivate, after a row activation commits, so the scheme's tracker
//     can count it and trigger mitigative action (migrations reserve the
//     channel themselves and report the busy time for accounting).
package mitigation

import "repro/internal/dram"

// LookupClass classifies how a Translate call resolved, feeding the
// Figure 10 breakdown.
type LookupClass int

const (
	// LookupNone: the scheme has no indirection (baseline, victim refresh,
	// Blockhammer).
	LookupNone LookupClass = iota
	// LookupBloomFiltered: the resettable bloom filter's bit was clear, so
	// no FPT access was needed (memory-mapped AQUA).
	LookupBloomFiltered
	// LookupCacheHit: the FPT-Cache held the entry.
	LookupCacheHit
	// LookupSingleton: FPT-Cache miss, but a same-group resident entry with
	// the singleton bit set proved the row is not quarantined.
	LookupSingleton
	// LookupDRAM: the in-DRAM FPT had to be read.
	LookupDRAM
	// LookupSRAM: a full-SRAM indirection table answered (AQUA-SRAM mode,
	// RRS's RIT).
	LookupSRAM
	// LookupPinned: the row holds AQUA's own tables; its entry is pinned in
	// SRAM to avoid recursive lookups (Section VI-B).
	LookupPinned

	// NumLookupClasses is the number of classes, for array-indexed stats.
	NumLookupClasses
)

// String names the class for reports.
func (c LookupClass) String() string {
	switch c {
	case LookupNone:
		return "none"
	case LookupBloomFiltered:
		return "bloom-filtered"
	case LookupCacheHit:
		return "fpt-cache-hit"
	case LookupSingleton:
		return "singleton"
	case LookupDRAM:
		return "dram"
	case LookupSRAM:
		return "sram"
	case LookupPinned:
		return "pinned"
	default:
		return "unknown"
	}
}

// SRAMLatency is the lookup latency of an SRAM indirection table (AQUA's
// SRAM tables and pinned entries, RRS's RIT): 4 cycles at 3 GHz, the
// paper's "3 to 4 cycles".
const SRAMLatency dram.PS = 1330

// Translation is the result of mapping an install row to a physical row.
type Translation struct {
	// PhysRow is the physical row the access must be routed to.
	PhysRow dram.Row
	// Latency is the table-lookup latency to charge before the DRAM access
	// can issue (SRAM lookups are a few controller cycles; a miss that
	// walks to the in-DRAM FPT costs a real DRAM access).
	Latency dram.PS
	// Class records how the lookup resolved.
	Class LookupClass
}

// Stats aggregates a mitigation scheme's activity.
type Stats struct {
	// Mitigations counts mitigative actions (quarantine/swap/refresh
	// events).
	Mitigations int64
	// RowMigrations counts physical row transfers (one read+write pair
	// each). This is the Figure 6 metric: an AQUA quarantine is 1, an RRS
	// swap is 2, an RRS re-swap is 4.
	RowMigrations int64
	// Evictions counts quarantine evictions of stale entries (AQUA).
	Evictions int64
	// ProactiveDrains counts stale-entry evictions performed off the
	// critical path by the optional background drainer (Section IV-D).
	ProactiveDrains int64
	// VictimRefreshes counts neighbor-refresh operations (victim refresh).
	VictimRefreshes int64
	// ChannelBusy is the total channel time consumed by mitigative actions.
	ChannelBusy dram.PS
	// ThrottleDelay is the total delay injected by rate limiting
	// (Blockhammer).
	ThrottleDelay dram.PS
	// Lookups counts Translate resolutions per class.
	Lookups [NumLookupClasses]int64
	// TableDRAMAccesses counts DRAM accesses made to the scheme's own
	// in-memory tables.
	TableDRAMAccesses int64
	// ReuseViolations counts RQA slots that had to be reused within one
	// epoch — zero whenever the RQA is provisioned per Equation 3.
	ReuseViolations int64
	// MigrationAborts and OverflowFallbacks are always zero: they counted
	// AQUA's responses to injected faults, and fault injection is gone.
	// They stay only so that sim.Result's JSON, which aquabench's
	// committed digests hash, keeps its bytes until the next change to
	// those digests drops them.
	MigrationAborts   int64
	OverflowFallbacks int64
}

// TotalLookups sums the per-class lookup counters.
func (s *Stats) TotalLookups() int64 {
	var n int64
	for _, v := range s.Lookups {
		n += v
	}
	return n
}

// Mitigator is the memory-controller-facing interface of a scheme.
type Mitigator interface {
	// Name identifies the scheme in reports.
	Name() string
	// Translate maps an install row to its current physical row at time
	// now, charging lookup latency and possibly performing DRAM accesses
	// to in-memory tables.
	Translate(row dram.Row, now dram.PS) Translation
	// Delay returns the earliest time an activation of the row may issue;
	// schemes without rate limiting return now.
	Delay(row dram.Row, now dram.PS) dram.PS
	// OnActivate informs the scheme that an activation of physRow
	// committed at time at. It returns the channel-busy time consumed by
	// any mitigative action triggered (0 if none). The scheme performs the
	// action against the rank itself, including reserving the channel.
	OnActivate(physRow dram.Row, at dram.PS) dram.PS
	// OnEpoch marks a tracker epoch boundary (every tREFW).
	OnEpoch(now dram.PS)
	// Stats returns a snapshot of the scheme's counters.
	Stats() Stats
}

// None is the unprotected baseline.
type None struct{}

// Name implements Mitigator.
func (None) Name() string { return "baseline" }

// Translate implements Mitigator with the identity mapping.
func (None) Translate(row dram.Row, _ dram.PS) Translation {
	return Translation{PhysRow: row, Class: LookupNone}
}

// Delay implements Mitigator with no throttling.
func (None) Delay(_ dram.Row, now dram.PS) dram.PS { return now }

// OnActivate implements Mitigator with no action.
func (None) OnActivate(_ dram.Row, _ dram.PS) dram.PS { return 0 }

// OnEpoch implements Mitigator.
func (None) OnEpoch(_ dram.PS) {}

// Stats implements Mitigator.
func (None) Stats() Stats { return Stats{} }
