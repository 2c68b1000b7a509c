// Package invariant is the simulator's runtime correctness layer: a
// violation collector that components assert against while a simulation
// runs. The hooks live in the components themselves —
//
//   - internal/dram re-derives the per-bank timing windows (tRC, tRCD,
//     tRP, tRFC, tFAW) from a reference Timing and checks every committed
//     command against them, independently of the scheduling arithmetic;
//   - internal/memctrl checks that no access completes inside a reserved
//     migration window and that background work (refresh, epochs) is
//     never starved past its deadline;
//   - internal/core checks AQUA's structural state: RQA occupancy within
//     capacity, FPT and RPT remaining a bijection, no same-epoch slot
//     reuse, and a completed proactive-drain sweep leaving zero stale
//     quarantined rows.
//
// The package deliberately imports nothing from the simulator (times are
// plain int64 picoseconds, mirroring dram.PS) so every layer can hook
// into it without import cycles. Checking is enabled by handing a
// *Checker to a component's Config; a nil checker is the release mode
// and costs one pointer test per assertion site.
package invariant

import (
	"fmt"
	"strings"
)

// Violation is one observed invariant breach.
type Violation struct {
	// Component names the layer that detected the breach ("dram",
	// "memctrl", "core", ...).
	Component string
	// Rule names the invariant ("tRP", "fpt-rpt-bijection", ...).
	Rule string
	// At is the simulated time of the violating event, in picoseconds.
	At int64
	// Detail is the human-readable specifics.
	Detail string
}

// String formats the violation for logs and test failures.
func (v Violation) String() string {
	return fmt.Sprintf("%s/%s at %dps: %s", v.Component, v.Rule, v.At, v.Detail)
}

// storeLimit bounds retained violations so a hot broken invariant cannot
// exhaust memory; the count keeps increasing past it.
const storeLimit = 256

// Checker collects violations. The zero value is not valid; use New.
// It is not safe for concurrent use, matching the single-threaded
// simulator core.
type Checker struct {
	violations []Violation
	count      int
}

// New returns an enabled checker.
func New() *Checker { return &Checker{} }

// Reportf records a violation.
func (c *Checker) Reportf(component, rule string, at int64, format string, args ...any) {
	v := Violation{Component: component, Rule: rule, At: at, Detail: fmt.Sprintf(format, args...)}
	c.count++
	if len(c.violations) < storeLimit {
		c.violations = append(c.violations, v)
	}
}

// Checkf asserts cond, recording a violation when it is false. It
// returns cond so call sites can branch on the outcome.
func (c *Checker) Checkf(cond bool, component, rule string, at int64, format string, args ...any) bool {
	if !cond {
		c.Reportf(component, rule, at, format, args...)
	}
	return cond
}

// Count returns the total number of violations observed (including any
// dropped past the retention limit).
func (c *Checker) Count() int { return c.count }

// Violations returns the retained violations in observation order.
func (c *Checker) Violations() []Violation { return c.violations }

// Err returns nil if no violation was observed, otherwise an error
// summarizing the first few.
func (c *Checker) Err() error {
	if c.count == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s):", c.count)
	for i, v := range c.violations {
		if i == 5 {
			fmt.Fprintf(&b, "\n  ... %d more", c.count-i)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v.String())
	}
	return fmt.Errorf("%s", b.String())
}
