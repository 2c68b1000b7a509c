package main

import (
	"bytes"
	"fmt"
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

// writeTrace packs recs into a trace file and returns its path.
func writeTrace(t *testing.T, recs []trace.Record) string {
	t.Helper()
	var file bytes.Buffer
	trace.PackStream(trace.NewSliceStream(recs), int64(len(recs))).WriteTo(&file)
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
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

// TestStats checks every line stats prints for a small trace.
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

// dumpLine is the line dump prints for r.
func dumpLine(r trace.Record) string {
	op := "R"
	if r.Write {
		op = "W"
	}
	return fmt.Sprintf("%s %d %d\n", op, r.Row, r.GapInstr)
}

// TestDumpPrintsOneLinePerRecord: dump prints "R|W <row> <gap>" for
// every record, in order, and nothing else.
func TestDumpPrintsOneLinePerRecord(t *testing.T) {
	recs := gccRecords(t, 1000)
	var got, want bytes.Buffer
	if err := runDump([]string{writeTrace(t, recs)}, &got); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		want.WriteString(dumpLine(r))
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("dump printed %d bytes, want %d", got.Len(), want.Len())
	}
}

// TestTruncatedTraceFails cuts a 1,000-record gcc trace to 2,000 B:
// every reading subcommand must fail instead of acting on the records
// the cut left.
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
	}{{"stats", runStats}, {"dump", runDump}, {"replay", runReplay}} {
		var out bytes.Buffer
		err := sub.run([]string{path}, &out)
		if err == nil || !strings.Contains(err.Error(), "1000 records take") {
			t.Errorf("%s on a truncated trace: err = %v, want the missing bytes named", sub.name, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s printed %d bytes for a truncated trace", sub.name, out.Len())
		}
	}
}

// TestRecordThenRead runs record, then every reading subcommand on the
// file it wrote, and record's argument errors.
func TestRecordThenRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gcc.trace")
	var out bytes.Buffer
	if err := runRecord([]string{"-workload", "gcc", "-n", "2000", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	if want := "wrote 2000 records to " + path + "\n"; out.String() != want {
		t.Fatalf("record printed %q, want %q", out.String(), want)
	}
	for _, sub := range []struct {
		name string
		run  func([]string, io.Writer) error
		want string
	}{
		{"stats", runStats, "records       2000\n"},
		{"dump", runDump, dumpLine(gccRecords(t, 1)[0])},
		{"replay", runReplay, "invariant held\n"},
	} {
		out.Reset()
		if err := sub.run([]string{path}, &out); err != nil || !strings.Contains(out.String(), sub.want) {
			t.Errorf("%s of a recorded trace: err = %v, output lacks %q:\n%.300s", sub.name, err, sub.want, out.String())
		}
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "gcc"}, "-o is required"},
		{[]string{"-workload", "gcc", "-attack", "dos", "-o", path}, "mutually exclusive"},
		{[]string{"-workload", "no-such", "-o", path}, `unknown workload "no-such"`},
		{[]string{"-attack", "no-such", "-o", path}, `unknown attack "no-such"`},
		{[]string{"-o", path}, "need -workload or -attack"},
		{[]string{"-workload", "gcc", "-n", "-1", "-o", path}, "-n -1 is negative"},
	} {
		out.Reset()
		if err := runRecord(tc.args, &out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("record %s: err = %v, want %q", strings.Join(tc.args, " "), err, tc.want)
		}
	}
}

// TestRecordRoundTrip records every SPEC17 workload and every attack
// pattern at the default 100,000 records. Each file must replay the
// stream record for record, and writing the Packed read back must give
// the file's bytes.
func TestRecordRoundTrip(t *testing.T) {
	var sources [][2]string // {-workload, -attack}
	for _, spec := range workload.SPEC17() {
		sources = append(sources, [2]string{spec.Name, ""})
	}
	for _, atk := range []string{"single-sided", "double-sided", "adaptive", "dos"} {
		sources = append(sources, [2]string{"", atk})
	}
	dir := t.TempDir()
	for _, src := range sources {
		path := filepath.Join(dir, src[0]+src[1]+".trace")
		if err := runRecord([]string{"-workload", src[0], "-attack", src[1], "-o", path}, io.Discard); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := trace.ReadPacked(bytes.NewBuffer(file))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		want, err := recordStream(src[0], src[1], 100_000, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, n := p.Stream(), 0
		for {
			g, gok := got.Next()
			w, wok := want.Next()
			if gok != wok || g != w {
				t.Fatalf("%s: record %d replays %+v (%v), the stream gave %+v (%v)", path, n, g, gok, w, wok)
			}
			if !gok {
				break
			}
			n++
		}
		var again bytes.Buffer
		if _, err := p.WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), file) {
			t.Fatalf("%s: rewriting the %d records read back differs from the file (%v)", path, n, err)
		}
		t.Logf("%-13s %7d records, %7d B, %.3f B/record", src[0]+src[1], n, len(file), float64(len(file))/float64(n))
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
