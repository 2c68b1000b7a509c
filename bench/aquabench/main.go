// Command aquabench is the repository benchmark. One invocation runs one
// workload for a fixed time against the simulator's public entry points,
// checks every output (against bench/aquabench/testdata/digests.txt, or for
// a seed without a committed digest, against the run's own first output),
// and prints every metric as "<workload> <metric> <value> <unit>" followed
// by one JSON result line.
//
// Usage, from the repository root (bench/run.sh builds the binary first):
//
//	aquabench -workload cell_lbm64 -seed 1 -seconds 20 -trace 0 [-json runs.jsonl] [-spans spans.jsonl]
//	aquabench compare [-benchmark BENCHMARK.json] parent.jsonl change.jsonl
//
// -trace 0 measures the end-to-end metrics; -trace 1 additionally runs one
// traced op and the internal/perf micros and reports the per-layer
// metrics. -json appends the run's record, every per-rep sample included,
// as one JSON line. See bench/README.md for the workloads, the metrics and
// the span schema.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// defaultSeed is the library's default experiment seed ("AQUA").
const defaultSeed = 0x41515541

// maxFailures stops a run's rep loop early: a workload that keeps failing
// has already failed its output check.
const maxFailures = 3

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, each the median
// of its per-rep samples; BENCHMARK.json fixes their bounds. Times are
// process CPU time, for the cell and the co-run normalised to a quiet host
// (see hostRef): on a shared host, wall time, and the cell's CPU time too,
// drift by up to 2x with other tenants' load (see bench/README.md).
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"mreq_per_cpu_s", "Mreq/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics. Simulated times carry sim_*
// units; every other time is host time. A layer the workload does not
// exercise reads 0.
var perLayer = []metricDef{
	{"cpu.requests", "count"},
	{"dram.acts", "count"},
	{"dram.row_hits", "count"},
	{"dram.row_misses", "count"},
	{"dram.row_streams", "count"},
	{"dram.refreshes", "count"},
	{"memctrl.epochs", "count"},
	{"memctrl.avg_latency_ns", "sim_ns"},
	{"core.lookups_bloom", "count"},
	{"core.lookups_cache_hit", "count"},
	{"core.lookups_singleton", "count"},
	{"core.lookups_dram", "count"},
	{"core.migrations", "count"},
	{"core.table_dram_accesses", "count"},
	{"core.channel_busy_ms", "sim_ms"},
	{"security.acts", "count"},
	{"security.max_window_acts", "count"},
	{"workload.build_ms", "ms"},
	{"sim.build_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.ns_per_req", "ns"},
	{"workload.stream_ms", "ms"},
	{"perf.dram_access_ns", "ns"},
	{"perf.ctrl_submit_ns", "ns"},
	{"perf.mitigation_translate_ns", "ns"},
	{"perf.tracker_act_hot_ns", "ns"},
	{"perf.tracker_act_cold_ns", "ns"},
	{"perf.event_pop_ns", "ns"},
	{"perf.workload_stream_ns", "ns"},
	{"perf.trace_replay_ns", "ns"},
	{"perf.issue_loop_4c_ns", "ns"},
	{"attrib.stream_ms", "ms"},
	{"attrib.translate_ms", "ms"},
	{"attrib.dram_ms", "ms"},
	{"attrib.tracker_ms", "ms"},
	{"attrib.residual_frac", "frac"},
	{"sim.baseline_ms_p50", "ms"},
	{"sim.baseline_ms_sum", "ms"},
	{"sim.cell_ms_p50", "ms"},
	{"sim.cell_ms_p90", "ms"},
	{"sim.cell_ms_sum", "ms"},
	{"flight.idle_frac", "frac"},
	{"lab.render_ms", "ms"},
	{"trace.captures", "count"},
	{"trace.replays", "count"},
	{"sim.cells_simulated", "count"},
	{"sim.deduped", "count"},
	{"cellcache.puts", "count"},
	{"cellcache.bytes", "bytes"},
	{"cellcache.put_us_p50", "us"},
	{"cellcache.put_us_p90", "us"},
	{"cellcache.disk_hits", "count"},
	{"cellcache.get_us_p50", "us"},
	{"cellcache.get_us_p90", "us"},
	{"bench.trace_overhead_frac", "frac"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one run measured; -json appends it as a line.
type record struct {
	Workload  string               `json:"workload"`
	Seed      uint64               `json:"seed"`
	Trace     bool                 `json:"trace"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Samples   map[string][]float64 `json:"samples"`
	Metrics   map[string]metric    `json:"metrics"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options selects one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // scratch root for cache directories
	spans    string // where a traced run writes its spans
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// runMain runs one workload and returns the exit code: 0 when every
// output check passed, 1 when one failed, 2 on a usage or I/O error.
func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("aquabench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, "workload seed (0 selects the default seed)")
	seconds := fs.Float64("seconds", 20, "how long the timed rep loop runs")
	trace := fs.Int("trace", 0, "1 runs a traced op and reports the per-layer metrics")
	jsonPath := fs.String("json", "", "append the run record (all per-rep samples) to this JSON-lines file")
	spansPath := fs.String("spans", "", "traced runs write their spans here (default <dir>/spans-<workload>.jsonl)")
	dir := fs.String("dir", ".bench_build", "scratch directory for cache stores and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "aquabench: -trace must be 0 or 1")
		return 2
	}
	opts := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir, spans: *spansPath}
	if opts.seed == 0 {
		opts.seed = defaultSeed
	}
	if opts.spans == "" {
		opts.spans = filepath.Join(opts.dir, "spans-"+opts.workload+".jsonl")
	}
	rec, err := runWorkload(fullConfig(), opts)
	if err == nil && *jsonPath != "" {
		err = appendRecord(*jsonPath, rec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aquabench:", err)
		return 2
	}
	printResult(stdout, rec)
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// runWorkload measures one workload; a traced run also writes its spans.
// An error means the run could not start; failures during the run are
// counted in the record instead.
func runWorkload(cfg config, opts options) (record, error) {
	rec := record{Workload: opts.workload, Seed: opts.seed, Trace: opts.trace,
		Samples: map[string][]float64{}, Metrics: map[string]metric{}}
	if err := os.MkdirAll(opts.dir, 0o755); err != nil {
		return rec, err
	}
	runDir, err := os.MkdirTemp(opts.dir, "run-")
	if err != nil {
		return rec, err
	}
	defer os.RemoveAll(runDir)
	b, err := newBench(opts.workload, cfg, opts.seed, runDir)
	if err != nil {
		return rec, err
	}
	m := &meter{rec: &rec, digests: cfg.digests, key: opts.workload + " " + fmt.Sprintf("%#x", opts.seed)}
	if b.normalised() {
		m.ref = newHostRef()
	}

	var setup []float64
	if err := m.op("init", func() error {
		var err error
		setup, err = b.init()
		return err
	}); err == nil {
		m.loop(b, cfg.minReps, opts.seconds)
	}
	if setup != nil {
		rec.Samples["setup_s"] = setup
	}
	if m.ref != nil {
		rec.Samples["ref_cpu_s"] = m.ref.runs
	}
	for _, d := range endToEnd {
		rec.Metrics[d.name] = metric{median(rec.Samples[d.name]), d.unit}
	}
	wall := median(rec.Samples["wall_s"])
	if !opts.trace {
		return rec, nil
	}

	tr := newTracer()
	layers := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		layers[d.name] = 0
	}
	// The micros run first: the traced op prices its event counts with them.
	m.op("micros", func() error { return runMicros(cfg.benchtime, tr, layers) })
	var tracedWall time.Duration
	freshHeap() // as before every timed rep
	m.op("traced", func() error {
		wall, out, err := b.traced(tr, layers)
		if err != nil {
			return err
		}
		tracedWall = wall
		return m.check(out)
	})
	if wall > 0 && tracedWall > 0 {
		layers["bench.trace_overhead_frac"] = tracedWall.Seconds()/wall - 1
	}
	for _, d := range perLayer {
		rec.Metrics[d.name] = metric{layers[d.name], d.unit}
	}
	m.op("spans", func() error { return tr.write(opts.spans) })
	return rec, nil
}

// outcome is what one op produced, for the output checks and the
// throughput metric.
type outcome struct {
	digest   string // SHA-256 over the op's output bytes
	requests int64  // simulated requests the op's results account for
}

// bench is one workload. The meter calls init once, then per rep:
// prepare (timed as a setup_s sample unless init returned the set-up
// samples), run (timed as a cpu_s sample) and verify (untimed).
type bench interface {
	// normalised reports whether the workload's times are normalised by
	// the host reference batch (see hostRef).
	normalised() bool
	init() ([]float64, error)
	prepare() error
	run() error
	verify() (outcome, error)
	// traced runs one op with a span around every layer call, fills the
	// layer metrics and returns the op's outcome and the wall time of the
	// part of the op that an untraced rep times.
	traced(tr *tracer, layers map[string]float64) (time.Duration, outcome, error)
}

// meter runs ops under panic isolation and keeps the failure count.
type meter struct {
	rec     *record
	ref     *hostRef
	digests map[string]string
	key     string // "<workload> <seed>" in digests.txt form
	first   string // the first verified digest of this run
}

// op runs fn as one attempted op; a returned error or a panic counts it
// failed.
func (m *meter) op(name string, fn func() error) (err error) {
	m.rec.Attempted++
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		if err != nil {
			m.rec.Failed++
			fmt.Fprintf(os.Stderr, "aquabench: %s %s: %v\n", m.rec.Workload, name, err)
		}
	}()
	return fn()
}

// check compares an op's digest with the committed one, or with the first
// digest of the run when the seed has none committed.
func (m *meter) check(out outcome) error {
	if want, ok := m.digests[m.key]; ok {
		if out.digest != want {
			return fmt.Errorf("output digest %s, committed %s", out.digest, want)
		}
		return nil
	}
	if m.first == "" {
		m.first = out.digest
		fmt.Fprintf(os.Stderr, "aquabench: %s digest %s (no committed digest; reps must agree)\n", m.key, out.digest)
		return nil
	}
	if out.digest != m.first {
		return fmt.Errorf("output digest %s differs from the run's first %s", out.digest, m.first)
	}
	return nil
}

// loop runs one untimed warm-up rep, then timed reps until at least
// minReps have run and the time budget is spent.
func (m *meter) loop(b bench, minReps int, seconds float64) {
	failed := m.rec.Failed
	m.rep(b, false)
	start := time.Now()
	for n := 0; n < minReps || time.Since(start).Seconds() < seconds; n++ {
		if m.rec.Failed-failed >= maxFailures {
			return
		}
		m.rep(b, true)
	}
}

// rep runs one prepare/run/verify cycle, starting from a collected heap
// returned to the OS so that each rep's peak RSS is its own. The raw CPU
// time, the wall time and the hypervisor's steal over the run are kept as
// samples beside the (normalised) times the metrics use.
func (m *meter) rep(b bench, timed bool) {
	ref0 := m.ref.refresh()
	resting := freshHeap()
	var setup, cpu, wall, stolen, ref time.Duration
	var out outcome
	err := m.op("rep", func() error {
		c0 := cpuTime()
		if err := b.prepare(); err != nil {
			return err
		}
		c1, t1, s1 := cpuTime(), time.Now(), stolenTime()
		if err := b.run(); err != nil {
			return err
		}
		c2, t2, s2 := cpuTime(), time.Now(), stolenTime()
		setup, cpu, wall, stolen = c1-c0, c2-c1, t2.Sub(t1), s2-s1
		ref = m.ref.around(ref0)
		var err error
		if out, err = b.verify(); err != nil {
			return err
		}
		return m.check(out)
	})
	if err != nil || !timed {
		return
	}
	s := m.rec.Samples
	n := norm(cpu, ref)
	s["cpu_s"] = append(s["cpu_s"], n)
	s["setup_s"] = append(s["setup_s"], norm(setup, ref0))
	s["mreq_per_cpu_s"] = append(s["mreq_per_cpu_s"], float64(out.requests)/n/1e6)
	s["peak_rss_mb"] = append(s["peak_rss_mb"], procStatusMiB("VmHWM:")-resting)
	s["raw_cpu_s"] = append(s["raw_cpu_s"], cpu.Seconds())
	s["wall_s"] = append(s["wall_s"], wall.Seconds())
	s["stolen_s"] = append(s["stolen_s"], stolen.Seconds())
}

// freshHeap collects the heap, returns it to the OS, restarts the kernel's
// peak-RSS counter (VmHWM) and returns the resting RSS in MiB. A rep's
// peak_rss_mb sample is its VmHWM above that resting RSS: the absolute
// value would carry the few MiB of idle heap the Go runtime sometimes
// keeps resident after an earlier, larger op, which moves from process to
// process.
func freshHeap() float64 {
	debug.FreeOSMemory()
	// Best effort: where the reset is not allowed, VmHWM stays the
	// process's lifetime peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	return procStatusMiB("VmRSS:")
}

// procStatusMiB reads a kB field of /proc/self/status in MiB (0 when
// unavailable).
func procStatusMiB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == field {
			if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// printResult prints every metric as a text line, then the JSON result
// line with the end-to-end metrics (untraced) or the per-layer metrics
// (traced).
func printResult(w io.Writer, rec record) {
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := rec.Metrics[name]
		fmt.Fprintf(w, "%s %s %v %s\n", rec.Workload, name, mv.Value, mv.Unit)
	}
	// Attempted is at least 1: a run's init is an op.
	fmt.Fprintf(w, "%s failed_frac %v frac\n", rec.Workload, float64(rec.Failed)/float64(rec.Attempted))
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	res := result{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		res.Metrics[d.name] = rec.Metrics[d.name]
	}
	line, _ := json.Marshal(res) // plain structs of numbers and strings always marshal
	fmt.Fprintf(w, "%s\n", line)
}

// appendRecord appends rec as one JSON line.
func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runMicros measures the internal/perf layer micros with testing.Benchmark
// at the given -test.benchtime, one span each.
func runMicros(benchtime string, tr *tracer, layers map[string]float64) error {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return err
	}
	root := tr.begin(0, "perf")
	defer tr.end(root)
	for _, mb := range micros {
		var r testing.BenchmarkResult
		tr.do(root, mb.name, func() { r = testing.Benchmark(mb.fn) })
		if r.N == 0 {
			return fmt.Errorf("%s: benchmark failed", mb.name)
		}
		layers[mb.name] = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return nil
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between the order statistics of xs (0
// for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
