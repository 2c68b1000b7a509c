// Command aqualint is the repository's static-analysis multichecker: it
// loads the requested packages with one go list run (lint.Load),
// type-checks each from source and runs the determinism and
// lock-discipline analyzer suite over each (nodirectrand, noclock,
// maporder, floatcmp, nakedgo, guardedby). After the suite it
// audits `//aqualint:ignore` directives and reports any that suppressed
// nothing (analyzer name "unusedignore").
//
// Usage:
//
//	go run ./cmd/aqualint ./...                 # whole repository
//	go run ./cmd/aqualint ./internal/dram
//	go run ./cmd/aqualint -list                 # describe the analyzers
//	go run ./cmd/aqualint -json ./...           # machine-readable output
//	go -C bench run repro/cmd/aqualint ./...    # the bench/ module, which ./... stops at
//
// Exit status: 0 clean, 1 diagnostics reported, 2 load or usage failure.
// Suppress a reviewed finding with an `//aqualint:ignore <name>` comment
// on the flagged line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/analyzers"
)

// jsonDiag is the -json wire form of one diagnostic.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages args name, relative to the working directory's
// module, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("aqualint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "describe the analyzers and exit")
	asJSON := flags.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "aqualint:", err)
		return 2
	}

	suite := analyzers.All()
	if *list {
		for _, an := range suite {
			fmt.Fprintf(stdout, "%-14s [package] %s\n", an.Name, an.Doc)
		}
		fmt.Fprintf(stdout, "%-14s [audit] %s\n", "unusedignore",
			"report //aqualint:ignore directives that suppressed nothing")
		return 0
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		return fail(err)
	}
	if len(pkgs) == 0 {
		return fail(fmt.Errorf("no packages match %v", patterns))
	}

	// A package that fails to load is reported and skipped; the rest are
	// still linted. The ignore audit runs last: only then is every
	// suppression hit recorded.
	exit := 0
	var linted []*lint.Package
	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		if pkg.Err != nil {
			fmt.Fprintf(stderr, "aqualint: %s: %v\n", pkg.Path, pkg.Err)
			exit = 2
			continue
		}
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "aqualint: %s: type error: %v\n", pkg.Path, terr)
			exit = 2
		}
		diags = append(diags, lint.RunAnalyzers(pkg, suite)...)
		linted = append(linted, pkg)
	}
	diags = append(diags, lint.UnusedIgnores(linted)...)

	if *asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 && exit == 0 {
		exit = 1
	}
	return exit
}
