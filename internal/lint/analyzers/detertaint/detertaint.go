// Package detertaint is the interprocedural determinism-taint rule: no
// function transitively reachable from a determinism root may reach a
// nondeterminism source. It generalizes the per-call-site rules
// (nodirectrand, noclock, maporder) from call sites to call chains over
// the module call graph, interface devirtualization included.
//
// Roots are declared in source with a `//detertaint:root` directive on
// the function — the repo marks the experiment engine's cell execution
// and grid fan-out (sim.Runner.RunCtx/Precompute), the content-addressed
// cache write path (cellcache.Store.Put), and every figure/table
// rendering entry point.
// Anything those reach, at any depth and through any interface, must be
// a pure function of the configuration: results feed SHA-256 cell keys
// and byte-compared golden figures, so one wall-clock read or
// order-dependent map walk silently poisons caches and diffs.
//
// Nondeterminism sources:
//
//   - wall-clock reads: time.Now/Since/Until/Sleep/After/Tick/NewTimer/NewTicker
//   - unseeded or Go-release-dependent randomness: any use of math/rand,
//     math/rand/v2, or crypto/rand
//   - environment reads: os.Getenv, os.LookupEnv, os.Environ
//   - map iteration with order-dependent effects (the maporder rule) in
//     any reachable function body
//
// A reviewed sink is annotated `//detertaint:reviewed <reason>` on its
// declaration: the function is exempted and taint does not propagate
// through it. The annotation is exported as a fact ("detertaint.reviewed")
// so downstream analyzers can see which functions were vouched for.
package detertaint

import (
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/lint"
	"repro/internal/lint/analyzers/maporder"
)

// Analyzer is the detertaint check.
var Analyzer = &lint.Analyzer{
	Name: "detertaint",
	Doc: "forbid nondeterminism sources (wall clock, global rand, env reads, " +
		"order-dependent map iteration) anywhere reachable from //detertaint:root functions",
	RunModule: run,
}

// FactRoot marks a function annotated //detertaint:root.
const FactRoot = "detertaint.root"

// FactReviewed marks a function annotated //detertaint:reviewed; the
// fact value is the reason string.
const FactReviewed = "detertaint.reviewed"

var (
	rootRe     = regexp.MustCompile(`^//\s*detertaint:root\s*$`)
	reviewedRe = regexp.MustCompile(`^//\s*detertaint:reviewed(?:\s+(.*))?$`)
)

// clockFns mirrors the noclock rule's banned time-package calls.
var clockFns = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// envFns are the os-package environment reads.
var envFns = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
}

func run(pass *lint.ModulePass) {
	graph := pass.Graph

	// Scan phase: collect //detertaint:root and //detertaint:reviewed
	// directives from function docs and export them as facts.
	var roots []*types.Func
	reviewed := make(map[*types.Func]bool)
	for _, fn := range graph.Functions() {
		info := graph.Decl(fn)
		if info.Decl.Doc == nil {
			continue
		}
		for _, c := range info.Decl.Doc.List {
			if rootRe.MatchString(c.Text) {
				roots = append(roots, fn)
				pass.Facts.Export(fn, FactRoot, true)
				continue
			}
			if m := reviewedRe.FindStringSubmatch(c.Text); m != nil {
				if m[1] == "" {
					pass.Reportf(info.Decl.Pos(), "detertaint:reviewed needs a reason: //detertaint:reviewed <why this sink is acceptable>")
					continue
				}
				reviewed[fn] = true
				pass.Facts.Export(fn, FactReviewed, m[1])
			}
		}
	}
	if len(roots) == 0 {
		return
	}

	// Check phase: everything reachable from the roots — not traversing
	// through reviewed functions — must be free of nondeterminism sources.
	reach := graph.Reachable(roots, func(fn *types.Func) bool { return reviewed[fn] })
	for _, fn := range graph.Functions() {
		if !reach.Has(fn) {
			continue
		}
		for _, e := range graph.CallsFrom(fn) {
			source, ok := bannedCallee(e.Callee)
			if !ok {
				continue
			}
			pass.Reportf(e.Pos,
				"nondeterminism source %s is reachable from determinism root (chain: %s); results feed cell keys and golden figures — make it deterministic or annotate the function //detertaint:reviewed <reason>",
				source, reach.PathString(fn)+" → "+source)
		}
		info := graph.Decl(fn)
		maporder.FindViolations(info.Pkg.Info, info.Decl.Body, func(pos token.Pos, msg string) {
			pass.Reportf(pos, "%s — and %s is reachable from determinism root (chain: %s)",
				msg, lint.FuncName(fn), reach.PathString(fn))
		})
	}
}

// bannedCallee classifies a callee as a nondeterminism source.
func bannedCallee(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch pkg.Path() {
	case "math/rand", "math/rand/v2":
		// Only the global-source package functions are nondeterministic.
		// Methods on an explicitly seeded *Rand, and the constructors that
		// make one, are exactly how deterministic code should use rand.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return "", false
		}
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return "", false
		}
		return pkg.Path() + "." + fn.Name(), true
	case "crypto/rand":
		return pkg.Path() + "." + fn.Name(), true
	case "time":
		if clockFns[fn.Name()] {
			return "time." + fn.Name(), true
		}
	case "os":
		if envFns[fn.Name()] {
			return "os." + fn.Name(), true
		}
	}
	return "", false
}
