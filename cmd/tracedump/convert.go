package main

// convert and stats subcommands. Both auto-detect the input container
// (text or v1 binary) from its leading bytes and are written against
// io.Writer so tests drive them directly.

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dram"
	"repro/internal/trace"
)

// detectFile sniffs the trace container format of a file.
func detectFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	prefix := make([]byte, 4)
	n, err := io.ReadFull(f, prefix)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return "", err
	}
	return trace.DetectFormat(prefix[:n]), nil
}

// runConvert converts a trace between the text and v1 binary containers.
func runConvert(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	to := fs.String("to", "", "output format: text, v1 (required)")
	out := fs.String("o", "", "output file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || *to == "" {
		return errors.New("convert: -o and -to are required")
	}
	if *to != "text" && *to != "v1" {
		return fmt.Errorf("convert: unknown output format %q", *to)
	}
	if fs.NArg() != 1 {
		return errors.New("convert: need exactly one input trace")
	}
	in := fs.Arg(0)
	from, err := detectFile(in)
	if err != nil {
		return err
	}
	recs, err := loadRecords(in, from)
	if err != nil {
		return err
	}

	dst, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := writeRecords(dst, *to, recs); err != nil {
		dst.Close()
		os.Remove(*out)
		return err
	}
	if err := dst.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "converted %s (%s) -> %s (%s): %d records\n", in, from, *out, *to, len(recs))
	return nil
}

// loadRecords reads the record stream of a text or v1 trace.
func loadRecords(path, format string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if format == trace.FormatText {
		return trace.ReadText(f)
	}
	r, err := trace.NewReader(f)
	if err != nil {
		return nil, err
	}
	var recs []trace.Record
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// writeRecords writes one record stream as text or v1.
func writeRecords(dst io.Writer, to string, recs []trace.Record) error {
	if to == "text" {
		return trace.WriteText(dst, recs)
	}
	w, err := trace.NewWriter(dst, int64(len(recs)))
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			return err
		}
	}
	return w.Close()
}

// runStats prints statistics for a text or v1 trace.
func runStats(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("stats: need exactly one trace file")
	}
	path := fs.Arg(0)
	format, err := detectFile(path)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	recs, err := loadRecords(path, format)
	if err != nil {
		return err
	}
	var writes, instr int64
	rows := make(map[dram.Row]struct{})
	for _, rec := range recs {
		if rec.Write {
			writes++
		}
		instr += rec.GapInstr
		rows[rec.Row] = struct{}{}
	}
	perRec := "-"
	if len(recs) > 0 {
		perRec = fmt.Sprintf("%.2f B/record", float64(st.Size())/float64(len(recs)))
	}
	fmt.Fprintf(stdout, "format        %s\n", format)
	fmt.Fprintf(stdout, "records       %d\n", len(recs))
	fmt.Fprintf(stdout, "file bytes    %d (%s)\n", st.Size(), perRec)
	fmt.Fprintf(stdout, "writes        %d\n", writes)
	fmt.Fprintf(stdout, "instructions  %d\n", instr)
	fmt.Fprintf(stdout, "distinct rows %d\n", len(rows))
	return nil
}
