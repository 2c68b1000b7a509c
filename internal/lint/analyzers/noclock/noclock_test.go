package noclock_test

import (
	"testing"

	"repro/internal/lint/analyzers/noclock"
	"repro/internal/lint/linttest"
)

func TestAnalyzer(t *testing.T) {
	linttest.Run(t, noclock.Analyzer, "testdata", "a")
}

func TestScope(t *testing.T) {
	applies := noclock.Analyzer.Applies
	for _, p := range []string{"repro/cmd/aquasim", "repro/cmd/figures"} {
		if applies(p) {
			t.Errorf("%s is a front-end; wall-clock progress timing is allowed there", p)
		}
	}
	for _, p := range []string{"repro", "repro/internal/dram", "repro/internal/sim", "a"} {
		if !applies(p) {
			t.Errorf("%s computes results or renders figures; must be in scope", p)
		}
	}
}
