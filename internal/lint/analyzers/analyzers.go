// Package analyzers registers the aqualint analyzer suite: the
// determinism and lock-discipline rules specific to this simulator.
// Every analyzer inspects one type-checked package at a time; see each
// analyzer's package documentation for the rationale behind its rule
// and the packages it covers.
package analyzers

import (
	"repro/internal/lint"
	"repro/internal/lint/analyzers/floatcmp"
	"repro/internal/lint/analyzers/guardedby"
	"repro/internal/lint/analyzers/maporder"
	"repro/internal/lint/analyzers/nakedgo"
	"repro/internal/lint/analyzers/noclock"
	"repro/internal/lint/analyzers/nodirectrand"
)

// All returns the full aqualint suite in reporting order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		nodirectrand.Analyzer,
		noclock.Analyzer,
		maporder.Analyzer,
		floatcmp.Analyzer,
		nakedgo.Analyzer,
		guardedby.Analyzer,
	}
}
