package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/dram"
	"repro/internal/sim"
)

// smallConfig shrinks every workload to seconds of total test time: 1 ms
// windows, two workloads x two cells for the grids, one timed rep.
func smallConfig() config {
	return config{
		cellWindow:    dram.Millisecond,
		dosWindow:     dram.Millisecond,
		gridWindow:    dram.Millisecond,
		gridWorkloads: repro.SPECWorkloads()[:2],
		gridCells:     []sim.GridCell{{Scheme: sim.SchemeAquaSRAM, TRH: 1000}, {Scheme: sim.SchemeRRS, TRH: 1000}},
		renders:       []string{"figure7"},
		minReps:       1,
		warmFills:     1,
		benchtime:     "1x",
	}
}

// TestSmoke runs every BENCHMARK.json workload shrunk, untraced and
// traced, and checks the result line names every metric with its unit,
// no op failed, and the spans nest.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, workloads)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}

	for _, name := range names {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			spans := filepath.Join(dir, "spans.jsonl")
			rec, err := runWorkload(smallConfig(), options{workload: name, seed: defaultSeed, trace: traced, dir: dir, spans: spans})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s traced=%t: %d of %d ops failed", name, traced, rec.Failed, rec.Attempted)
			}
			var out bytes.Buffer
			printResult(&out, rec)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: result line: %v", name, err)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want[traced]))
			}
			for metric, unit := range want[traced] {
				got, ok := res.Metrics[metric]
				if !ok || got.Unit != unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", name, traced, metric, got, unit)
				}
				if !strings.Contains(out.String(), name+" "+metric+" ") {
					t.Errorf("%s: no text line for %s", name, metric)
				}
			}
			if traced {
				checkSpans(t, name, spans)
			}
		}
	}
}

// checkSpans parses a span file and requires each child to lie inside its
// parent and share its op.
func checkSpans(t *testing.T, name, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[int64]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: span line %q: %v", name, sc.Text(), err)
		}
		byID[s.ID] = s
	}
	if len(byID) == 0 {
		t.Fatalf("%s: no spans", name)
	}
	for _, s := range byID {
		if s.End < s.Start {
			t.Errorf("%s: span %+v ends before it starts", name, s)
		}
		if s.Parent == 0 {
			if s.Op != s.ID {
				t.Errorf("%s: root span %+v is not its own op", name, s)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %+v not inside its parent %+v", name, s, p)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestClassify(t *testing.T) {
	tight := []float64{0.99, 1.00, 1.00, 1.01, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 0.9, 1.0, 1.1, 1.3}
	cases := []struct {
		name           string
		parent, change []float64
		lowerBetter    bool
		want           string
	}{
		{"same", tight, tight, true, unchanged},
		{"within bound", tight, scale(tight, 1.05), true, unchanged},
		{"slower", tight, scale(tight, 1.2), true, regressed},
		{"faster", tight, scale(tight, 0.8), true, improved},
		{"higher is better, lower", tight, scale(tight, 0.8), false, regressed},
		{"higher is better, higher", tight, scale(tight, 1.2), false, improved},
		{"noisy, medians apart", noisy, scale(noisy, 1.2), true, unresolved},
		{"noisy, medians close", noisy, noisy, true, unresolved},
		{"noisy but every run slower", noisy, scale(noisy, 2), true, regressed},
		{"noisy but every run faster", scale(noisy, 2), noisy, true, improved},
		{"no runs", nil, tight, true, unresolved},
	}
	for _, c := range cases {
		if got := classify(c.parent, c.change, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: classify = %s, want %s", c.name, got, c.want)
		}
	}
}
