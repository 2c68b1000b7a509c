// Package floatcmp flags == and != between floating-point operands in
// the closed-form model package (internal/analytic). That package
// reproduces the paper's tables bit-for-bit; an exact float comparison
// there either works by accident of rounding or silently diverges across
// architectures (FMA contraction, x87 spills).
// Compare against an explicit tolerance, or restructure to integers.
package floatcmp

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the floatcmp check.
var Analyzer = &lint.Analyzer{
	Name: "floatcmp",
	Doc: "flag ==/!= on floating-point values in the analytic model " +
		"package; use an explicit tolerance instead",
	Applies: func(pkgPath string) bool {
		if !strings.HasPrefix(pkgPath, "repro") {
			return true // analyzer test corpora
		}
		return pkgPath == "repro/internal/analytic"
	},
	Run: run,
}

func run(pass *lint.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if isFloat(pass.TypeOf(bin.X)) || isFloat(pass.TypeOf(bin.Y)) {
				pass.Reportf(bin.OpPos,
					"floating-point %s comparison is not portable; compare with an explicit tolerance", bin.Op)
			}
			return true
		})
	}
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
