package nodirectrand_test

import (
	"testing"

	"repro/internal/lint/analyzers/nodirectrand"
	"repro/internal/lint/linttest"
)

func TestAnalyzer(t *testing.T) {
	linttest.Run(t, nodirectrand.Analyzer, "testdata", "a")
}

func TestScope(t *testing.T) {
	// A nil Applies runs the analyzer on every package.
	if nodirectrand.Analyzer.Applies != nil {
		t.Error("internal/rng implements its generators from scratch; a math/rand draw there must fail lint too, so every package must be in scope")
	}
}
