// Package fault is the deterministic fault-injection subsystem: a seeded
// decision engine that any simulator layer can consult ("does fault K fire
// at this opportunity?") without owning schedule state or randomness.
//
// Design rules, mirroring internal/invariant:
//
//   - A nil *Injector is the disabled mode: every method is nil-safe and
//     the hot path pays one pointer test. Release-mode simulation never
//     constructs an injector.
//   - All randomness flows from internal/rng via a caller-provided seed,
//     so the same (seed, plan, simulation) triple produces the identical
//     fault trace on every run — the property the determinism tests pin.
//   - Times are plain int64 picoseconds so the package imports nothing
//     from the simulator layers and can be attached to any of them.
//
// What a fired fault *does* is owned by the layer that asked: the DRAM
// rank redirects a stuck row, the AQUA engine degrades to victim-refresh
// on a forced RQA overflow, the experiment runner panics a cell. This
// package only decides when, records the event, and counts it.
package fault

import (
	"fmt"

	"repro/internal/rng"
)

// Kind enumerates the injectable fault types, grouped by the layer that
// consults them.
type Kind int

const (
	// StuckRow is a DRAM-level row-decoder fault: an activation selects a
	// neighbouring row instead of the addressed one.
	StuckRow Kind = iota
	// ECCFlip is a DRAM-level ECC-correctable bit flip in the quarantine
	// region; the correction pipeline stalls the access by one tCL.
	ECCFlip
	// MigrationAbort is a controller-level fault: a row copy is aborted
	// mid-stream (the read pass completed, the write was torn down) and
	// the migration retries from scratch.
	MigrationAbort
	// RefreshCollision is a controller-level fault: a refresh command
	// collides with an in-flight migration's channel reservation and is
	// re-issued after the reservation ends.
	RefreshCollision
	// RQAOverflow is a mitigation-level fault: the quarantine refuses the
	// aggressor and the engine degrades gracefully to a victim-refresh
	// fallback for that mitigation.
	RQAOverflow
	// FPTCachePoison is a mitigation-level fault: the aggressor's
	// FPT-Cache entry is invalidated, forcing the next lookup to walk the
	// in-DRAM table (which self-heals the cache).
	FPTCachePoison
	// TrackerCorrupt is a tracker-level fault: one Misra-Gries counter is
	// corrupted, after which the structure re-heapifies around the bad
	// value and the invariant layer re-validates consistency.
	TrackerCorrupt
	// CellPanic is an experiment-engine fault: the grid cell panics,
	// exercising the worker pool's panic isolation.
	CellPanic
	// The next two slots belong to retired harness-level kinds (a
	// transient, retried cell failure and a worker kill). Result values
	// serialize FaultStats.ByKind, whose length committed result digests
	// pin, so the slots stay; they have no rules-grammar name and never
	// fire.
	_
	_

	// NumKinds bounds the enum for per-kind arrays.
	NumKinds
)

// kindNames is the canonical spelling used by the rules grammar.
var kindNames = [NumKinds]string{
	StuckRow:         "stuck-row",
	ECCFlip:          "ecc-flip",
	MigrationAbort:   "migration-abort",
	RefreshCollision: "refresh-collision",
	RQAOverflow:      "rqa-overflow",
	FPTCachePoison:   "fpt-poison",
	TrackerCorrupt:   "tracker-corrupt",
	CellPanic:        "panic",
}

// String returns the rules-grammar name of the kind.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// KindByName resolves a rules-grammar name to its Kind.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n != "" && n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Trigger selects how a schedule decides each opportunity.
type Trigger int

const (
	// TriggerProb fires independently with probability P per opportunity.
	TriggerProb Trigger = iota
	// TriggerOnce fires at the first opportunity at or after time At, then
	// never again.
	TriggerOnce
	// TriggerBurst fires at every opportunity from time At until Count
	// fires have occurred.
	TriggerBurst
)

// Schedule is one arm's firing rule.
type Schedule struct {
	Trigger Trigger
	// P is the per-opportunity probability (TriggerProb).
	P float64
	// At is the earliest firing time in picoseconds (TriggerOnce,
	// TriggerBurst).
	At int64
	// Count is the number of consecutive fires (TriggerBurst).
	Count int64
}

// String renders the schedule in the rules grammar.
func (s Schedule) String() string {
	switch s.Trigger {
	case TriggerOnce:
		return fmt.Sprintf("once:%d", s.At)
	case TriggerBurst:
		return fmt.Sprintf("burst:%d:%d", s.At, s.Count)
	default:
		return fmt.Sprintf("p:%g", s.P)
	}
}

// Arm is one (kind, schedule) pair in a plan.
type Arm struct {
	Kind     Kind
	Schedule Schedule
}

// Plan is the set of arms active for one simulation run.
type Plan struct {
	Arms []Arm
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Arms) == 0 }

// Event is one injected fault in the trace.
type Event struct {
	Kind Kind
	At   int64
}

// Stats counts injected faults.
type Stats struct {
	// Injected is the total number of fires across all kinds.
	Injected int64
	// ByKind breaks the total down per fault kind.
	ByKind [NumKinds]int64
}

// traceLimit bounds the recorded event trace; Stats keeps exact totals
// beyond it (mirrors invariant.Checker's violation store cap).
const traceLimit = 4096

// armState is one arm's runtime schedule state.
type armState struct {
	arm   Arm
	rand  *rng.Rand // TriggerProb draw stream
	fired int64
	done  bool
}

// Injector evaluates a plan's schedules. A nil *Injector is the disabled
// mode: Fire and friends return their zero answers at the cost of one
// pointer test. Not safe for concurrent use — each simulated system owns
// its injector, like every other per-system structure.
type Injector struct {
	seed    uint64
	byKind  [NumKinds][]*armState
	payload [NumKinds]*rng.Rand
	filter  [NumKinds]func(row int64) bool
	trace   []Event
	stats   Stats
}

// NewInjector builds an injector for a plan. Returns nil for an empty
// plan, keeping the disabled fast path.
func NewInjector(seed uint64, plan Plan) *Injector {
	if plan.Empty() {
		return nil
	}
	in := &Injector{seed: seed}
	for i, a := range plan.Arms {
		st := &armState{arm: a}
		if a.Schedule.Trigger == TriggerProb {
			// Each arm draws from its own stream keyed by (kind, position)
			// so adding an arm never perturbs another arm's decisions.
			st.rand = rng.New(rng.Derive(seed, 0xFA01, uint64(a.Kind), uint64(i)))
		}
		in.byKind[a.Kind] = append(in.byKind[a.Kind], st)
	}
	return in
}

// Fire reports whether fault k fires at this opportunity (time now) and
// records it. Multiple arms of the same kind are OR-ed; each firing arm
// is counted.
func (in *Injector) Fire(k Kind, now int64) bool {
	if in == nil || len(in.byKind[k]) == 0 {
		return false
	}
	fired := false
	for _, st := range in.byKind[k] {
		if st.decide(now) {
			fired = true
			in.record(k, now)
		}
	}
	return fired
}

// FireRow is Fire for row-scoped faults: when a row filter is installed
// for k (SetRowFilter), opportunities on rows outside the filter never
// fire and consume no randomness.
func (in *Injector) FireRow(k Kind, row int64, now int64) bool {
	if in == nil || len(in.byKind[k]) == 0 {
		return false
	}
	if f := in.filter[k]; f != nil && !f(row) {
		return false
	}
	return in.Fire(k, now)
}

// SetRowFilter scopes fault k to rows the predicate accepts (e.g. the
// AQUA engine limits ECCFlip to the quarantine region). A nil receiver
// is a no-op.
func (in *Injector) SetRowFilter(k Kind, f func(row int64) bool) {
	if in == nil {
		return
	}
	in.filter[k] = f
}

// Draw returns the next value of kind k's deterministic payload stream,
// used by layers that need extra fault parameters (which counter to
// corrupt, by how much). The stream is derived lazily from the arm
// decision streams' seed space and is stable across runs.
func (in *Injector) Draw(k Kind) uint64 {
	if in == nil {
		return 0
	}
	if in.payload[k] == nil {
		// Derive from a separate key space so payload draws never
		// interleave with the arms' decision streams.
		in.payload[k] = rng.New(rng.Derive(in.seed, 0xFA02, uint64(k)))
	}
	return in.payload[k].Uint64()
}

// decide evaluates one arm's schedule at time now.
func (st *armState) decide(now int64) bool {
	if st.done {
		return false
	}
	s := st.arm.Schedule
	switch s.Trigger {
	case TriggerOnce:
		if now >= s.At {
			st.done = true
			return true
		}
		return false
	case TriggerBurst:
		if now < s.At {
			return false
		}
		st.fired++
		if st.fired >= s.Count {
			st.done = true
		}
		return true
	default: // TriggerProb
		return st.rand.Float64() < s.P
	}
}

// record appends to the bounded trace and counts.
func (in *Injector) record(k Kind, now int64) {
	in.stats.Injected++
	in.stats.ByKind[k]++
	if len(in.trace) < traceLimit {
		in.trace = append(in.trace, Event{Kind: k, At: now})
	}
}

// Trace returns the recorded events (capped at traceLimit; Stats carries
// the exact totals). The slice is the injector's own — callers must not
// mutate it.
func (in *Injector) Trace() []Event {
	if in == nil {
		return nil
	}
	return in.trace
}

// Stats returns the fire counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}
