// Package guardedby checks documented lock discipline: a struct field
// whose comment says `guarded by mu` may only be touched by functions
// that demonstrably hold mu. The repo's shared state — the Runner's
// trace tier and cell stats, the flight.Group call table, the
// cellcache store's stats — all carry this comment; the analyzer turns
// the comment from prose into a checked contract.
//
// Annotation grammar:
//
//	type Store struct {
//		mu   sync.Mutex
//		mem  map[string][]byte // guarded by mu
//	}
//
// The named mutex must be a sibling field of type sync.Mutex or
// sync.RWMutex in the same struct, and the guarded field must be
// unexported. Then every access to it is in its own package, so checking
// one package at a time sees them all. A function may access the field
// when:
//
//   - its body (closures included) calls <x>.mu.Lock() or <x>.mu.RLock()
//     — the check is flow-insensitive by design: it catches the real
//     failure mode (a new method that never locks at all), not exotic
//     early-unlock interleavings; or
//   - the accessed value is a function-local (created inside the body,
//     as in constructors), so no other goroutine can see it yet.
package guardedby

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/lint"
)

// Analyzer is the guardedby check.
var Analyzer = &lint.Analyzer{
	Name: "guardedby",
	Doc: "fields commented `guarded by <mu>` must be unexported and may only be " +
		"accessed by functions that lock the named sibling mutex",
	Run: run,
}

var guardRe = regexp.MustCompile(`(?:^|\s)guarded by (\w+)`)

func run(pass *lint.Pass) {
	guards := guardedFields(pass)
	if len(guards) == 0 {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			locked := lockCalls(fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s, ok := pass.Info.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					return true
				}
				v, ok := s.Obj().(*types.Var)
				if !ok {
					return true
				}
				// Origin maps a field of an instantiated generic struct
				// (flight.Group[K, V]) back to its declaration.
				mu, guarded := guards[v.Origin()]
				if !guarded || locked[mu] || localValue(pass.Info, fn.Body, sel.X) {
					return true
				}
				pass.Reportf(sel.Sel.Pos(), "access to %s (guarded by %s) in %s, which does not lock %s",
					v.Name(), mu, funcName(fn), mu)
				return true
			})
		}
	}
}

// guardedFields maps every field of the package's structs that carries a
// `guarded by <mu>` comment to the mutex name. It reports an annotation
// naming no sibling mutex, and a guarded field that is exported.
func guardedFields(pass *lint.Pass) map[*types.Var]string {
	guards := make(map[*types.Var]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu, ok := guardAnnotation(field)
				if !ok {
					continue
				}
				if !hasMutexSibling(pass.Info, st, mu) {
					pass.Reportf(field.Pos(),
						"field is marked `guarded by %s` but the struct has no sync.Mutex/sync.RWMutex field named %s", mu, mu)
					continue
				}
				for _, name := range field.Names {
					if name.IsExported() {
						pass.Reportf(name.Pos(),
							"guarded field %s is exported; other packages could access it without locking %s", name.Name, mu)
					}
					if v, ok := pass.Info.Defs[name].(*types.Var); ok {
						guards[v] = mu
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardAnnotation reads a field's `guarded by <mu>` comment (doc or
// trailing line comment).
func guardAnnotation(f *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := guardRe.FindStringSubmatch(c.Text); m != nil {
				return m[1], true
			}
		}
	}
	return "", false
}

// hasMutexSibling reports whether the struct declares a field named mu of
// type sync.Mutex or sync.RWMutex.
func hasMutexSibling(info *types.Info, st *ast.StructType, mu string) bool {
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			if name.Name != mu {
				continue
			}
			if v, ok := info.Defs[name].(*types.Var); ok && isMutex(v.Type()) {
				return true
			}
		}
	}
	return false
}

func isMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockCalls collects the mutex field names the body locks:
// <expr>.<name>.Lock() or <expr>.<name>.RLock().
func lockCalls(body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		switch recv := sel.X.(type) {
		case *ast.SelectorExpr:
			out[recv.Sel.Name] = true
		case *ast.Ident:
			out[recv.Name] = true
		}
		return true
	})
	return out
}

// localValue reports whether the accessed base expression is a variable
// declared inside the function body — a value under construction that no
// other goroutine can reach, so lock discipline does not yet apply.
func localValue(info *types.Info, body *ast.BlockStmt, base ast.Expr) bool {
	id := rootIdent(base)
	if id == nil {
		return false
	}
	obj := info.ObjectOf(id)
	if obj == nil {
		return false
	}
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	return obj.Pos() > body.Lbrace && obj.Pos() < body.Rbrace+token.Pos(1)
}

// rootIdent unwraps selectors/parens/derefs to the leftmost identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// funcName names a declaration as F or (*T).M for reports.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	return "(" + types.ExprString(fn.Recv.List[0].Type) + ")." + fn.Name.Name
}
