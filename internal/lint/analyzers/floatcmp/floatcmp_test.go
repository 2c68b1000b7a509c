package floatcmp_test

import (
	"testing"

	"repro/internal/lint/analyzers/floatcmp"
	"repro/internal/lint/linttest"
)

func TestAnalyzer(t *testing.T) {
	linttest.Run(t, floatcmp.Analyzer, "testdata", "a")
}

func TestScope(t *testing.T) {
	applies := floatcmp.Analyzer.Applies
	for _, p := range []string{"repro/internal/analytic", "a"} {
		if !applies(p) {
			t.Errorf("%s should be in scope", p)
		}
	}
	if applies("repro/internal/stats") {
		t.Error("floatcmp is scoped to the closed-form model package")
	}
}
