package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// Row verdicts of compare.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// benchSpec is the part of BENCHMARK.json that compare and the smoke test
// read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// loadRecords reads a JSON-lines file of run records, as -json appends
// them.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain is "aquabench compare parent.jsonl change.jsonl": one row per
// (workload, end-to-end metric) with each side's median and quartiles
// over its untraced runs, classified against the BENCHMARK.json bound,
// plus one failed_frac row per workload. It exits 1 when any row
// regressed.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: aquabench compare [-benchmark BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aquabench:", err)
		return 2
	}
	var sides [2][]record
	for i := range sides {
		if sides[i], err = loadRecords(fs.Arg(i)); err != nil {
			fmt.Fprintln(os.Stderr, "aquabench:", err)
			return 2
		}
	}
	counts := map[string]int{}
	for _, wl := range spec.Workloads {
		parent, change := runsOf(sides[0], wl.Name), runsOf(sides[1], wl.Name)
		for _, m := range spec.EndToEnd {
			p, c := metricValues(parent, m.Name), metricValues(change, m.Name)
			v := classify(p, c, m.Better == "lower", m.Bound)
			counts[v]++
			fmt.Fprintf(w, "%-16s %-15s parent %s  change %s  %+7.2f%%  %s\n",
				wl.Name, m.Name, describe(p), describe(c), 100*relDelta(p, c), v)
		}
		pf, cf := failedFrac(parent), failedFrac(change)
		v := unchanged
		if cf > pf {
			v = regressed
		}
		counts[v]++
		fmt.Fprintf(w, "%-16s %-15s parent %.4f  change %.4f  %s\n", wl.Name, "failed_frac", pf, cf, v)
	}
	fmt.Fprintf(w, "rows: %d improved, %d regressed, %d unchanged, %d unresolved\n",
		counts[improved], counts[regressed], counts[unchanged], counts[unresolved])
	if counts[regressed] > 0 {
		return 1
	}
	return 0
}

// runsOf selects a workload's untraced runs.
func runsOf(recs []record, workload string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

// metricValues is one value per run.
func metricValues(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedFrac(recs []record) float64 {
	var failed, attempted int
	for _, r := range recs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

// classify judges one row from one value per run on each side. A median
// moving by more than the bound is a regression or an improvement; less is
// unchanged. When either side's quartile spread, as a share of its median,
// is wider than the bound the row is unresolved, unless every run of one
// side beats every run of the other.
func classify(parent, change []float64, lowerBetter bool, bound float64) string {
	if len(parent) == 0 || len(change) == 0 || median(parent) == 0 {
		return unresolved
	}
	worse := relDelta(parent, change)
	if !lowerBetter {
		worse = -worse
	}
	beats := func(a, b []float64) bool { // every run of a beats every run of b
		if lowerBetter {
			return maxOf(a) < minOf(b)
		}
		return minOf(a) > maxOf(b)
	}
	changeWins, parentWins := beats(change, parent), beats(parent, change)
	noisy := spread(parent) > bound || spread(change) > bound
	switch {
	case worse > bound:
		if noisy && !parentWins {
			return unresolved
		}
		return regressed
	case worse < -bound:
		if noisy && !changeWins {
			return unresolved
		}
		return improved
	case noisy && !parentWins && !changeWins:
		return unresolved
	}
	return unchanged
}

// relDelta is the change's median relative to the parent's.
func relDelta(parent, change []float64) float64 {
	pm := median(parent)
	if pm == 0 {
		return 0
	}
	return (median(change) - pm) / pm
}

// quartiles are Python's statistics.quantiles(xs, n=4) ("exclusive"
// method), the definition the benchmark's spread is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

func describe(xs []float64) string {
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", median(xs), q1, q3, len(xs))
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
