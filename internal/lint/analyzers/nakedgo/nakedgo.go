// Package nakedgo forbids naked `go` statements in the goroutine-spawning
// packages (repro/internal/flight, repro/internal/sim). A panic inside a
// bare goroutine cannot be recovered by any caller — it kills the whole
// process, bypassing the harness's cell isolation (flight.PanicError /
// sim.CellError). Every goroutine in those packages must therefore be a
// func literal that lexically contains a recover() call (normally inside
// a deferred literal), so the panic is converted into a structured error
// instead of an abort. Other packages spawn no goroutines today; if one
// starts to, add it to the scope rather than weakening the rule.
package nakedgo

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the nakedgo check.
var Analyzer = &lint.Analyzer{
	Name: "nakedgo",
	Doc: "forbid go statements without a lexically visible recover() in " +
		"goroutine-spawning packages; an unrecovered panic kills the process",
	Applies: func(pkgPath string) bool {
		// Non-module paths (analyzer test corpora) are always in scope.
		if !strings.HasPrefix(pkgPath, "repro") {
			return true
		}
		return pkgPath == "repro/internal/flight" || pkgPath == "repro/internal/sim"
	},
	Run: run,
}

func run(pass *lint.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				pass.Reportf(g.Pos(), "naked go statement: spawn a func literal with a deferred recover(), so a panic becomes an error instead of killing the process")
				return true
			}
			if !containsRecover(pass, lit.Body) {
				pass.Reportf(g.Pos(), "goroutine func literal has no recover(); a panic here kills the process — add a deferred recover that converts it to an error")
			}
			return true
		})
	}
}

// containsRecover reports whether body lexically contains a call to the
// recover builtin (at any nesting depth; a shadowed `recover` does not
// count).
func containsRecover(pass *lint.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "recover" {
			return true
		}
		if obj, ok := pass.Info.Uses[id]; ok {
			if _, builtin := obj.(*types.Builtin); builtin {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
