package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestReportFailures pins the failure summary a run prints before it
// exits 1: a *sim.CellError's row names the cell by its label and shows
// the cell's own cause, any other error's row shows "-" as its cell, and
// the status is 1. With no failures it prints nothing and returns 0.
func TestReportFailures(t *testing.T) {
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard)

	cell := &sim.CellError{
		Workload: "xz", Scheme: sim.SchemeAquaMemMapped, TRH: 1000, Variant: "bloom=3",
		Err: errors.New("panic: bloom: group size must be a power of two"),
	}
	failures := []failure{
		{"figure 7", fmt.Errorf("figure7: %w", cell)},
		{"table 2", errors.New("disk full")},
	}
	var out bytes.Buffer
	if status := reportFailures(&out, failures, 3); status != 1 {
		t.Fatalf("status %d with failed outputs, want 1", status)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 {
			rows[f[0]+" "+f[1]] = f[2:]
		}
	}
	if !strings.HasPrefix(out.String(), "Failure summary: outputs lost to failed cells\n") {
		t.Errorf("summary does not open with its title:\n%s", out.String())
	}
	if got, want := strings.Join(rows["figure 7"], " "), cell.Label()+" "+cell.Err.Error(); got != want {
		t.Errorf("cell error row reads %q, want %q", got, want)
	}
	if got, want := strings.Join(rows["table 2"], " "), "- disk full"; got != want {
		t.Errorf("plain error row reads %q, want %q", got, want)
	}

	out.Reset()
	if status := reportFailures(&out, nil, 3); status != 0 || out.Len() != 0 {
		t.Fatalf("no failures: status %d and output %q, want 0 and nothing", status, out.String())
	}
}
