// Package maporder flags `for range` loops over maps whose body has
// order-dependent effects: appending to a slice, writing output, or
// storing through a slice/array index. Go randomizes map iteration order,
// so such loops are the exact nondeterminism class that breaks
// bit-for-bit figure reproduction.
//
// The canonical fix — collect the keys, sort them, then iterate — is
// recognized: a loop whose appended slice is passed to sort.* or
// slices.* later in the same block is not flagged.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint"
)

// Analyzer is the maporder check.
var Analyzer = &lint.Analyzer{
	Name: "maporder",
	Doc: "flag map iteration with order-dependent effects (append, output, " +
		"ordered-state writes); iterate over sorted keys instead",
	Run: run,
}

func run(pass *lint.Pass) {
	for _, f := range pass.Files {
		findViolations(pass.Info, f, func(pos token.Pos, msg string) {
			pass.Reportf(pos, "%s", msg)
		})
	}
}

// findViolations walks root and reports each order-dependent effect
// inside a map-range body.
func findViolations(info *types.Info, root ast.Node, report func(pos token.Pos, msg string)) {
	ast.Inspect(root, func(n ast.Node) bool {
		list := stmtList(n)
		if list == nil {
			return true
		}
		for i, stmt := range list {
			rng, ok := stmt.(*ast.RangeStmt)
			if !ok || !isMapRange(info, rng) {
				continue
			}
			checkBody(info, rng, list[i+1:], report)
		}
		return true
	})
}

// stmtList returns a node's statement list if it directly holds
// statements (blocks and switch/select clauses).
func stmtList(n ast.Node) []ast.Stmt {
	switch s := n.(type) {
	case *ast.BlockStmt:
		return s.List
	case *ast.CaseClause:
		return s.Body
	case *ast.CommClause:
		return s.Body
	}
	return nil
}

func isMapRange(info *types.Info, rng *ast.RangeStmt) bool {
	t := info.TypeOf(rng.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// pkgNameOf resolves an identifier to the imported package it names, or
// nil if it is not a package qualifier.
func pkgNameOf(info *types.Info, id *ast.Ident) *types.PkgName {
	if obj, ok := info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn
		}
	}
	return nil
}

// checkBody reports order-dependent effects in a map-range body. rest is
// the tail of the enclosing statement list, used for the sorted-later
// exemption on appends.
func checkBody(info *types.Info, rng *ast.RangeStmt, rest []ast.Stmt, report func(pos token.Pos, msg string)) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.RangeStmt:
			// A nested map range is checked on its own; its body's
			// effects should not be double-reported here.
			if s != rng && isMapRange(info, s) {
				return false
			}
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(info, call) || len(call.Args) == 0 {
					continue
				}
				obj, text := target(info, call.Args[0])
				if sortedLater(info, rest, obj, text) {
					continue
				}
				report(s.Pos(),
					"append to "+text+" inside map iteration makes its order nondeterministic; collect keys, sort, then iterate (or sort "+text+" afterwards)")
			}
			for _, lhs := range s.Lhs {
				idx, ok := lhs.(*ast.IndexExpr)
				if !ok {
					continue
				}
				t := info.TypeOf(idx.X)
				if t == nil {
					continue
				}
				switch t.Underlying().(type) {
				case *types.Slice, *types.Array:
					_, text := target(info, idx.X)
					report(s.Pos(),
						"indexed write to "+text+" inside map iteration depends on iteration order; iterate over sorted keys")
				}
			}
		case *ast.CallExpr:
			if name, ok := outputCall(info, s); ok {
				report(s.Pos(),
					name+" inside map iteration emits output in nondeterministic order; iterate over sorted keys")
			}
		}
		return true
	})
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	obj := info.Uses[id]
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}

// target resolves the object and display text of an assignment target or
// append destination (handles plain identifiers and field selectors).
func target(info *types.Info, e ast.Expr) (types.Object, string) {
	switch x := e.(type) {
	case *ast.Ident:
		return info.ObjectOf(x), x.Name
	case *ast.SelectorExpr:
		_, text := target(info, x.X)
		return info.ObjectOf(x.Sel), text + "." + x.Sel.Name
	}
	return nil, types.ExprString(e)
}

// sortedLater reports whether a later statement in the same block passes
// the appended slice to sort.* or slices.* — the collect-then-sort idiom.
func sortedLater(info *types.Info, rest []ast.Stmt, obj types.Object, text string) bool {
	if obj == nil && text == "" {
		return false
	}
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn := pkgNameOf(info, id)
			if pn == nil {
				return true
			}
			if p := pn.Imported().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if mentions(info, arg, obj, text) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// mentions reports whether expr references the given object (or, for
// field targets, the same selector text).
func mentions(info *types.Info, expr ast.Expr, obj types.Object, text string) bool {
	hit := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if obj != nil && info.ObjectOf(x) == obj {
				hit = true
				return false
			}
		case *ast.SelectorExpr:
			if o, t := target(info, x); (obj != nil && o == obj) || (text != "" && t == text) {
				hit = true
				return false
			}
		}
		return true
	})
	return hit
}

// outputCall recognizes calls that emit ordered output: fmt.Print* /
// fmt.Fprint* package calls and writer-shaped methods (Write*, Print*,
// AddRow) on any receiver.
func outputCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn := pkgNameOf(info, id); pn != nil {
			if pn.Imported().Path() == "fmt" &&
				(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
				return "fmt." + name, true
			}
			return "", false // other package-level calls are not output sinks
		}
	}
	// Method calls: only writer-shaped names count, and only when the
	// receiver is a named method receiver (not a package qualifier).
	if info.Selections[sel] == nil {
		return "", false
	}
	if strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Print") || name == "AddRow" {
		return types.ExprString(sel.X) + "." + name, true
	}
	return "", false
}
