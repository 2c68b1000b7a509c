package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// writeTextTrace writes a small text trace and returns its path and the
// records it holds.
func writeTextTrace(t *testing.T, dir string) (string, []trace.Record) {
	t.Helper()
	recs := []trace.Record{
		{Row: 100, GapInstr: 5},
		{Row: 7, Write: true, GapInstr: 0},
		{Row: 100, GapInstr: 123456},
		{Row: 4096, Write: true, GapInstr: 1},
	}
	var buf bytes.Buffer
	if err := trace.WriteText(&buf, recs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "in.txt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, recs
}

// convert runs runConvert and returns its stdout.
func convert(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := runConvert(args, &out); err != nil {
		t.Fatalf("convert %v: %v", args, err)
	}
	return out.String()
}

// TestConvertChain drives text -> v1 -> text and checks the final text
// is byte-identical to the normalized original (lossless round trip
// through both containers).
func TestConvertChain(t *testing.T) {
	dir := t.TempDir()
	txt, recs := writeTextTrace(t, dir)
	v1 := filepath.Join(dir, "a.trace")
	txt2 := filepath.Join(dir, "out.txt")

	convert(t, "-to", "v1", "-o", v1, txt)
	out := convert(t, "-to", "text", "-o", txt2, v1)
	if !strings.Contains(out, "4 records") {
		t.Fatalf("convert output %q does not report 4 records", out)
	}

	var want bytes.Buffer
	if err := trace.WriteText(&want, recs); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(txt2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("round trip diverged:\ngot:\n%s\nwant:\n%s", got, want.Bytes())
	}

	// Each intermediate file must carry the right magic.
	for path, want := range map[string]string{txt: trace.FormatText, v1: trace.FormatV1} {
		got, err := detectFile(path)
		if err != nil || got != want {
			t.Fatalf("detectFile(%s) = %q, %v; want %q", path, got, err, want)
		}
	}

	var discard bytes.Buffer
	if err := runConvert([]string{"-to", "v2", "-o", filepath.Join(dir, "x"), v1}, &discard); err == nil {
		t.Fatal("unknown output format did not fail")
	}
}

// TestStats checks the stats subcommand on text and v1 containers.
func TestStats(t *testing.T) {
	dir := t.TempDir()
	txt, _ := writeTextTrace(t, dir)
	v1 := filepath.Join(dir, "s.trace")
	convert(t, "-to", "v1", "-o", v1, txt)
	for path, format := range map[string]string{txt: "text", v1: "aqua-trace-v1"} {
		var out bytes.Buffer
		if err := runStats([]string{path}, &out); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"format        " + format,
			"records       4",
			"writes        2",
			"instructions  123462",
			"distinct rows 3",
		} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("stats output missing %q:\n%s", want, out.String())
			}
		}
	}
}
