package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
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
		{"figure7", fmt.Errorf("figure7: %w", cell)},
		{"table2", errors.New("disk full")},
	}
	var out bytes.Buffer
	if status := reportFailures(&out, failures, 3); status != 1 {
		t.Fatalf("status %d with failed outputs, want 1", status)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 1 {
			rows[f[0]] = f[1:]
		}
	}
	if !strings.HasPrefix(out.String(), "Failure summary: outputs lost to failed cells\n") {
		t.Errorf("summary does not open with its title:\n%s", out.String())
	}
	if got, want := strings.Join(rows["figure7"], " "), cell.Label()+" "+cell.Err.Error(); got != want {
		t.Errorf("cell error row reads %q, want %q", got, want)
	}
	if got, want := strings.Join(rows["table2"], " "), "- disk full"; got != want {
		t.Errorf("plain error row reads %q, want %q", got, want)
	}

	out.Reset()
	if status := reportFailures(&out, nil, 3); status != 0 || out.Len() != 0 {
		t.Fatalf("no failures: status %d and output %q, want 0 and nothing", status, out.String())
	}
}

// TestSelection drives the flag handling. An unknown output exits 1,
// names the output and creates no -cache-dir; several flags print their
// outputs in registry order; -table 7 prints Table VII, then the
// storage report.
func TestSelection(t *testing.T) {
	defer log.SetOutput(log.Writer())
	var logged bytes.Buffer
	log.SetOutput(&logged)

	for _, args := range [][]string{{"-figure", "5"}, {"-table", "8"}, {"-section", "9z"}} {
		logged.Reset()
		dir := filepath.Join(t.TempDir(), "cache")
		var out bytes.Buffer
		if status := run(append(args, "-cache-dir", dir), &out); status != 1 || out.Len() != 0 {
			t.Errorf("%v: status %d and output %q, want 1 and nothing", args, status, out.String())
		}
		if name := args[0][1:] + args[1]; !strings.Contains(logged.String(), "no output "+name+" ") {
			t.Errorf("%v: error %q does not name %s", args, logged.String(), name)
		}
		if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%v: -cache-dir stat %v, want it never created", args, err)
		}
	}

	var out bytes.Buffer
	if status := run([]string{"-table", "7"}, &out); status != 0 {
		t.Fatalf("-table 7: status %d", status)
	}
	if want := repro.Table7() + "\n" + repro.StorageReport() + "\n"; out.String() != want {
		t.Errorf("-table 7 printed:\n%s\nwant:\n%s", out.String(), want)
	}

	out.Reset()
	if status := run([]string{"-figure", "7", "-table", "3", "-workloads", "spec", "-window", "1"}, &out); status != 0 {
		t.Fatalf("-figure 7 -table 3: status %d", status)
	}
	spec1ms, err := os.ReadFile(filepath.Join("..", "..", "testdata", "figures_spec_1ms.txt"))
	if err != nil {
		t.Fatal(err)
	}
	figure7, ok := strings.CutPrefix(out.String(), repro.Table3()+"\n")
	if !ok || !strings.HasPrefix(figure7, "Figure 7:") || !strings.Contains(string(spec1ms), figure7) {
		t.Errorf("-figure 7 -table 3 printed:\n%s\nwant Table III, then Figure 7 as figures_spec_1ms.txt holds it", out.String())
	}
}
