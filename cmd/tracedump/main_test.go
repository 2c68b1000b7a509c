package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// writeTrace writes recs as a v1 trace file and returns its path.
func writeTrace(t *testing.T, recs []trace.Record) string {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, int64(len(recs)))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// gccRecords is what `tracedump record -workload gcc -n <n>` captures.
func gccRecords(t *testing.T, n int64) []trace.Record {
	t.Helper()
	spec, _ := workload.ByName("gcc")
	gen := workload.NewGenerator(spec, sim.VisibleRegion(sim.Config{}), 0, 1, workload.Params{})
	s := gen.Stream(n, 1)
	var recs []trace.Record
	for {
		req, ok := s.Next()
		if !ok {
			return recs
		}
		recs = append(recs, trace.Record{Row: req.Row, Write: req.Write, GapInstr: req.GapInstr})
	}
}

// TestStats checks every line stats prints for a small v1 trace.
func TestStats(t *testing.T) {
	bank1 := dram.Baseline().RowOf(1, 5)
	path := writeTrace(t, []trace.Record{
		{Row: 100, GapInstr: 5},
		{Row: 7, Write: true, GapInstr: 0},
		{Row: 100, GapInstr: 123456},
		{Row: bank1, Write: true, GapInstr: 1},
	})
	var out bytes.Buffer
	if err := runStats([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"records       4\n",
		"writes        2\n",
		"instructions  123462\n",
		"distinct rows 3\n",
		"banks touched 2\n",
		"hottest row   100 (2 accesses)\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("stats output missing %q:\n%s", want, out.String())
		}
	}
}

// TestDumpMatchesWriteText: dump prints exactly trace.WriteText of the
// trace's records.
func TestDumpMatchesWriteText(t *testing.T) {
	recs := gccRecords(t, 1000)
	var got, want bytes.Buffer
	if err := runDump([]string{writeTrace(t, recs)}, &got); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteText(&want, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("dump differs from WriteText (%d vs %d bytes)", got.Len(), want.Len())
	}
}

// TestTruncatedTraceFails cuts a 1,000-record gcc trace (5,020 B) to
// 2,000 B: stats and dump must fail with trace.ErrTruncated instead of
// reporting the records they could decode.
func TestTruncatedTraceFails(t *testing.T) {
	path := writeTrace(t, gccRecords(t, 1000))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:2000], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []struct {
		name string
		run  func([]string, io.Writer) error
	}{{"stats", runStats}, {"dump", runDump}} {
		var out bytes.Buffer
		err := sub.run([]string{path}, &out)
		if !errors.Is(err, trace.ErrTruncated) {
			t.Errorf("%s on a truncated trace: err = %v, want %v", sub.name, err, trace.ErrTruncated)
		}
		if out.Len() != 0 {
			t.Errorf("%s printed %d bytes for a truncated trace", sub.name, out.Len())
		}
	}
}

// TestReplayRejectsRowsOutsideRegion: a row the simulator never addresses
// (the last row of bank 0 lies in AQUA's reserved quarantine area; the
// other is outside the geometry) fails replay with the record's index and
// prints no results, under every scheme.
func TestReplayRejectsRowsOutsideRegion(t *testing.T) {
	for _, row := range []dram.Row{131071, 4294967295} {
		path := writeTrace(t, []trace.Record{
			{Row: 100, GapInstr: 10},
			{Row: row, GapInstr: 10},
		})
		for _, scheme := range []string{"aqua-memmapped", "aqua-sram", "rrs", "baseline", "blockhammer", "victim-refresh"} {
			var out bytes.Buffer
			err := runReplay([]string{"-scheme", scheme, path}, &out)
			if err == nil || !strings.Contains(err.Error(), "record 1:") {
				t.Errorf("replay -scheme %s of row %d: err = %v, want a record 1 error", scheme, row, err)
			}
			if out.Len() != 0 {
				t.Errorf("replay -scheme %s of row %d printed results:\n%s", scheme, row, out.String())
			}
		}
	}

	var out bytes.Buffer
	if err := runReplay([]string{"-scheme", "aqua-sram", writeTrace(t, gccRecords(t, 1000))}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "invariant held") {
		t.Fatalf("replay of an in-region trace:\n%s", out.String())
	}
}

// TestReplayRejectsThresholdBelowTwo: replay -trh below 2 is an error
// that prints nothing, as are a threshold under a scheme's floor (AQUA
// at 3, RRS at 41) and an unknown scheme.
func TestReplayRejectsThresholdBelowTwo(t *testing.T) {
	path := writeTrace(t, gccRecords(t, 100))
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trh", "0"}, "must be >= 2"},
		{[]string{"-trh", "1"}, "must be >= 2"},
		{[]string{"-trh", "-5"}, "must be >= 2"},
		{[]string{"-scheme", "aqua-sram", "-trh", "3"}, "aqua-sram needs T_RH >= 4"},
		{[]string{"-scheme", "aqua-memmapped", "-trh", "3"}, "aqua-memmapped needs T_RH >= 4"},
		{[]string{"-scheme", "rrs", "-trh", "41"}, "rrs needs T_RH >= 42"},
		{[]string{"-scheme", "no-such-scheme"}, "unknown scheme"},
	} {
		args := tc.args
		var out bytes.Buffer
		if err := runReplay(append(args, path), &out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("replay %s: err = %v, want %q", strings.Join(args, " "), err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("replay %s printed:\n%s", strings.Join(args, " "), out.String())
		}
	}
}
