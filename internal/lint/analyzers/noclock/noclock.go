// Package noclock forbids host reads in the code that computes results:
// wall-clock reads (time.Now, time.Since, time.Until, time.Sleep,
// time.After, time.Tick, time.NewTimer, time.NewTicker) and environment
// reads (os.Getenv, os.LookupEnv, os.Environ). Its scope is the root
// package repro, whose Lab renders every figure and table, and
// repro/internal/..., the simulator and its cell cache; together they
// hold every function a cell result or a rendered figure passes through.
// Simulated time must flow from the cycle counter (dram.PS), and a
// result must be a pure function of its configuration: a host read makes
// it depend on host speed, scheduling or the shell, which breaks the
// byte-compared goldens and lets the SHA-256-keyed cell cache serve a
// result its key does not describe. Command-line front-ends (cmd/...)
// may still measure wall time for progress reporting.
package noclock

import (
	"go/ast"
	"strings"

	"repro/internal/lint"
)

// clockFns lists the time-package functions that read or wait on the
// wall clock.
var clockFns = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// envFns lists the os-package environment reads.
var envFns = map[string]bool{
	"Getenv":    true,
	"LookupEnv": true,
	"Environ":   true,
}

// Analyzer is the noclock check.
var Analyzer = &lint.Analyzer{
	Name: "noclock",
	Doc: "forbid wall-clock and environment reads in the root package and " +
		"simulation packages; simulated time must come from the cycle " +
		"counter (dram.PS), results from the configuration alone",
	Applies: func(pkgPath string) bool {
		// cmd/ front-ends may time themselves. Non-module paths
		// (analyzer test corpora) are always in scope.
		if !strings.HasPrefix(pkgPath, "repro") {
			return true
		}
		return pkgPath == "repro" || strings.HasPrefix(pkgPath, "repro/internal/")
	},
	Run: run,
}

func run(pass *lint.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn := pass.PkgNameOf(id)
			if pn == nil {
				return true
			}
			switch name := sel.Sel.Name; pn.Imported().Path() {
			case "time":
				if clockFns[name] {
					pass.Reportf(sel.Pos(), "wall-clock call time.%s in a simulation package; derive time from the cycle counter (dram.PS)", name)
				}
			case "os":
				if envFns[name] {
					pass.Reportf(sel.Pos(), "environment read os.%s in a simulation package; results must depend on the configuration alone", name)
				}
			}
			return true
		})
	}
}
