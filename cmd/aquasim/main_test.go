package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// attackRuns lists every attack x scheme at the default T_RH, then
// README's half-double command. README's other attack command
// (table-hammer under aqua-memmapped) is a row of the matrix.
func attackRuns() [][]string {
	var runs [][]string
	for _, a := range attackNames {
		for s := sim.SchemeBaseline; s <= sim.SchemeVictimRefresh; s++ {
			runs = append(runs, []string{"-attack", a, "-scheme", s.String()})
		}
	}
	return append(runs, []string{"-attack", "half-double", "-scheme", "victim-refresh", "-trh", "400"})
}

// TestAttackMatrix pins every attack report against
// testdata/attacks.txt: one "$ aquasim <args>" line per run, then its
// report or its "error: " line, then a blank line. Table-hammer under any
// scheme but aqua-memmapped must fail with an error and print nothing.
func TestAttackMatrix(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "attacks.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, block := range strings.Split(strings.TrimRight(string(data), "\n"), "\n\n") {
		cmd, report, _ := strings.Cut(block, "\n")
		want[cmd] = report + "\n"
	}
	runs := attackRuns()
	if len(want) != len(runs) {
		t.Errorf("testdata holds %d runs, the matrix has %d", len(want), len(runs))
	}
	for _, args := range runs {
		cmd := "$ aquasim " + strings.Join(args, " ")
		t.Run(strings.Join(args[1:], "/"), func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			err := run(args, &out)
			got := out.String()
			if err != nil {
				if out.Len() != 0 {
					t.Errorf("%s failed after printing:\n%s", cmd, got)
				}
				got = fmt.Sprintf("error: %v\n", err)
			}
			if args[1] == "table-hammer" && args[3] != "aqua-memmapped" && err == nil {
				t.Errorf("%s: want an error, got a report", cmd)
			}
			if got != want[cmd] {
				t.Errorf("%s:\ngot:\n%swant:\n%s", cmd, got, want[cmd])
			}
		})
	}
}

// TestRejectsThresholdBelowTwo: -trh below 2 is an error in both modes,
// before anything runs.
func TestRejectsThresholdBelowTwo(t *testing.T) {
	for _, mode := range [][]string{
		{"-workload", "xz", "-window", "1"},
		{"-attack", "double-sided"},
	} {
		for _, trh := range []string{"0", "1", "-5"} {
			args := append(append([]string{}, mode...), "-trh", trh)
			var out bytes.Buffer
			err := run(args, &out)
			if err == nil || !strings.Contains(err.Error(), "must be >= 2") {
				t.Errorf("aquasim %s: err = %v, want a T_RH error", strings.Join(args, " "), err)
			}
			if out.Len() != 0 {
				t.Errorf("aquasim %s printed:\n%s", strings.Join(args, " "), out.String())
			}
		}
	}
}

// TestRejectsWindowBelowOneMs: -window below 1 ms is an error naming the
// flag, before anything runs (0 would otherwise run the default 64 ms).
func TestRejectsWindowBelowOneMs(t *testing.T) {
	for _, window := range []string{"0", "-1"} {
		args := []string{"-workload", "xz", "-window", window}
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "-window") {
			t.Errorf("aquasim %s: err = %v, want a -window error", strings.Join(args, " "), err)
		}
		if out.Len() != 0 {
			t.Errorf("aquasim %s printed:\n%s", strings.Join(args, " "), out.String())
		}
	}
}

// TestAttackRejectsWorkloadFlags: the flags that configure a workload run
// are errors next to -attack.
func TestAttackRejectsWorkloadFlags(t *testing.T) {
	for _, extra := range [][]string{
		{"-workload", "lbm"}, {"-window", "1"}, {"-faults", "*/*/*=ecc-flip@p:0.01"},
		{"-cache-dir", t.TempDir()}, {"-json"},
	} {
		args := append([]string{"-attack", "dos"}, extra...)
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), extra[0]) {
			t.Errorf("aquasim %s: err = %v, want one naming %s", strings.Join(args, " "), err, extra[0])
		}
		if out.Len() != 0 {
			t.Errorf("aquasim %s printed:\n%s", strings.Join(args, " "), out.String())
		}
	}
	if err := run([]string{"-attack", "no-such-attack"}, new(bytes.Buffer)); err == nil {
		t.Error("an unknown attack ran")
	}
}

// TestAttackHonoursTimeout: an attack runs through System.RunCtx, so an
// expired -timeout stops it with the context's error and no report.
func TestAttackHonoursTimeout(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-attack", "half-double", "-scheme", "blockhammer", "-timeout", "1ns"}, &out)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want %v", err, context.DeadlineExceeded)
	}
	if out.Len() != 0 {
		t.Fatalf("a timed-out attack printed:\n%s", out.String())
	}
}

// TestListNamesSchemesAndAttacks: -list prints every scheme name
// ParseScheme accepts and every attack name.
func TestListNamesSchemesAndAttacks(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := make(map[string]bool)
	for _, l := range strings.Split(out.String(), "\n") {
		lines[strings.TrimSpace(l)] = true
	}
	names := append([]string{}, attackNames...)
	for s := sim.SchemeBaseline; s <= sim.SchemeVictimRefresh; s++ {
		names = append(names, s.String())
	}
	for _, n := range names {
		if !lines[n] {
			t.Errorf("-list omits %q:\n%s", n, out.String())
		}
	}
}
