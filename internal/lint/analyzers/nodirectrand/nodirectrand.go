// Package nodirectrand forbids importing math/rand, math/rand/v2, or
// crypto/rand in any package, internal/rng included. All simulator
// randomness must flow through the explicitly-seeded xoshiro256**
// streams that internal/rng implements from scratch; a stray math/rand
// call ties figure output to Go-release-dependent generator behaviour
// (or, for crypto/rand, to the OS entropy pool) and silently breaks
// bit-for-bit reproducibility.
package nodirectrand

import (
	"strconv"

	"repro/internal/lint"
)

// forbidden lists the import paths that bypass the seeded RNG.
var forbidden = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// Analyzer is the nodirectrand check.
var Analyzer = &lint.Analyzer{
	Name: "nodirectrand",
	Doc: "forbid math/rand and crypto/rand in every package; " +
		"use the seeded streams of repro/internal/rng so results stay deterministic",
	Run: run,
}

func run(pass *lint.Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !forbidden[path] {
				continue
			}
			pos := imp.Path.Pos()
			if imp.Name != nil {
				pos = imp.Name.Pos()
			}
			pass.Reportf(pos, "direct import of %s breaks seed determinism; use repro/internal/rng", path)
		}
	}
}
