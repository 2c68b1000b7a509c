package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/attack"
	"repro/internal/cellcache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mitigation"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workloads lists the benchmark's workloads in BENCHMARK.json order.
var workloads = []string{"cell_lbm64", "dos_corun16", "grid_quick_cold", "grid_quick_warm"}

func workloadNames() string { return strings.Join(workloads, ", ") }

//go:embed testdata/digests.txt
var digestsTxt string

// config sizes the workloads. fullConfig is the benchmark; the smoke test
// shrinks every size.
type config struct {
	cellWindow    dram.PS // cell_lbm64's instruction budget, as baseline time
	dosWindow     dram.PS // dos_corun16's simulated run length
	gridWindow    dram.PS // the grids' LabOptions.Window
	gridWorkloads []string
	gridCells     []sim.GridCell
	renders       []string
	minReps       int
	warmFills     int    // cold fills grid_quick_warm's set-up median is taken over
	benchtime     string // -test.benchtime of the perf micros
	digests       map[string]string
}

func fullConfig() config {
	return config{
		cellWindow:    64 * dram.Millisecond,
		dosWindow:     16 * dram.Millisecond,
		gridWindow:    4 * dram.Millisecond,
		gridWorkloads: repro.SPECWorkloads(),
		gridCells:     repro.PaperGrid(),
		renders:       []string{"figure3", "figure6", "figure7", "figure9", "figure10", "figure11"},
		minReps:       3,
		warmFills:     3,
		benchtime:     "200ms",
		digests:       parseDigests(digestsTxt),
	}
}

// parseDigests reads "<workload> <seed> <sha256>" lines; # starts a
// comment.
func parseDigests(text string) map[string]string {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && !strings.HasPrefix(f[0], "#") {
			out[f[0]+" "+f[1]] = f[2]
		}
	}
	return out
}

// parallel is the grids' worker count: at most two goroutines generate
// load, fewer on a 1-CPU host.
func parallel() int { return min(2, runtime.NumCPU()) }

// newBench builds the named workload over seed; dir is the run's scratch
// directory.
func newBench(name string, cfg config, seed uint64, dir string) (bench, error) {
	switch name {
	case "cell_lbm64":
		return newCell(cfg, seed)
	case "dos_corun16":
		return newDoS(cfg, seed)
	case "grid_quick_cold", "grid_quick_warm":
		g := &gridBench{warm: name == "grid_quick_warm", cfg: cfg, dir: dir,
			opts: repro.LabOptions{Window: cfg.gridWindow, Workloads: cfg.gridWorkloads, Seed: seed, Parallel: parallel()}}
		for _, rn := range cfg.renders {
			r, ok := repro.RendererByName(rn)
			if !ok {
				return nil, fmt.Errorf("unknown renderer %q", rn)
			}
			g.renders = append(g.renders, r)
		}
		return g, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
}

// cellBench is one sim.System built from generated streams and run: the
// full 64 ms lbm cell, or the Section VI-C DoS co-run.
type cellBench struct {
	cfg     sim.Config
	until   dram.PS // Run bound (0 = until every stream drains)
	streams func() []cpu.Stream
	check   func(sim.Result) error // extra output check

	sys *sim.System
	res sim.Result
	// consumed is how many requests each core's stream delivered in the
	// first verified rep; the traced op drains that many from fresh
	// streams to time the stream layer alone.
	consumed []int64
	counters []*countedStream
}

// newCell is cell_lbm64: lbm on 4 cores under AQUA memory-mapped at
// T_RH=1K for one 64 ms window, seeded as the repository's full-cell
// budget test seeds it.
func newCell(cfg config, seed uint64) (*cellBench, error) {
	spec, ok := workload.ByName("lbm")
	if !ok {
		return nil, fmt.Errorf("lbm spec missing")
	}
	scfg := sim.Config{Scheme: sim.SchemeAquaMemMapped, TRH: 1000, Cores: 4, Seed: seed}
	region := sim.VisibleRegion(scfg)
	params := workload.Params{EpochLength: dram.DDR4().TREFW, NominalIPC: 0.3, Cores: 4}
	windowInstr := float64(cfg.cellWindow) / 1e12 * 3e9 * params.NominalIPC
	reqs := int64(windowInstr*spec.MPKI/1000) + 16
	return &cellBench{
		cfg: scfg,
		streams: func() []cpu.Stream {
			out := make([]cpu.Stream, 4)
			for i := range out {
				gen := workload.NewGenerator(spec, region, i, seed, params)
				out[i] = gen.Stream(reqs, seed+uint64(i)*7919)
			}
			return out
		},
		check: func(sim.Result) error { return nil },
	}, nil
}

// newDoS is dos_corun16: the rotating DoS attacker on core 0 and gcc on
// cores 1-3 under AQUA memory-mapped at T_RH=1K with the security monitor,
// as sim.CoRun builds its protected run, for 16 ms of simulated time.
func newDoS(cfg config, seed uint64) (*cellBench, error) {
	spec, ok := workload.ByName("gcc")
	if !ok {
		return nil, fmt.Errorf("gcc spec missing")
	}
	const trh = 1000
	region := sim.VisibleRegion(sim.Config{})
	params := workload.Params{Cores: 4}
	reqs := int64(float64(cfg.dosWindow)/1e12*3e9*spec.MPKI/1000) + 16
	return &cellBench{
		cfg:   sim.Config{TRH: trh, Scheme: sim.SchemeAquaMemMapped, Seed: seed, Monitor: true},
		until: cfg.dosWindow,
		streams: func() []cpu.Stream {
			out := make([]cpu.Stream, 4)
			out[0] = attack.NewRotatingDoS(region.Geom, region.VisibleRowsPerBank, trh/2, 1<<40)
			for i := 1; i < 4; i++ {
				gen := workload.NewGenerator(spec, region, i, seed, params)
				out[i] = gen.Stream(reqs, seed+uint64(i)*7919)
			}
			return out
		},
		check: func(res sim.Result) error {
			if res.Violated {
				return fmt.Errorf("security monitor saw a row reach T_RH (max window ACTs %d)", res.MaxWindowACTs)
			}
			return nil
		},
	}, nil
}

// countedStream counts the requests a stream delivers.
type countedStream struct {
	cpu.Stream
	n int64
}

func (c *countedStream) Next() (cpu.Request, bool) {
	r, ok := c.Stream.Next()
	if ok {
		c.n++
	}
	return r, ok
}

// normalised is true: a cell's working set is tens of MiB, and its CPU
// time moves with other tenants' load as the reference batch's does.
func (b *cellBench) normalised() bool { return true }

func (b *cellBench) init() ([]float64, error) { return nil, nil }

// prepare builds the streams and the system. Until a rep has verified, the
// streams are wrapped in counters to learn their consumed lengths.
func (b *cellBench) prepare() error {
	streams := b.streams()
	b.counters = nil
	if b.consumed == nil {
		for i, s := range streams {
			c := &countedStream{Stream: s}
			b.counters = append(b.counters, c)
			streams[i] = c
		}
	}
	b.sys = sim.NewSystem(b.cfg, streams)
	return nil
}

func (b *cellBench) run() error {
	b.res = b.sys.Run(b.until)
	return nil
}

func (b *cellBench) verify() (outcome, error) {
	sys := b.sys
	b.sys = nil
	if err := b.check(b.res); err != nil {
		return outcome{}, err
	}
	for _, c := range b.counters {
		b.consumed = append(b.consumed, c.n)
	}
	return cellOutcome(b.res, sys.Rank.Stats())
}

// cellOutcome digests a run's Result and rank counters.
func cellOutcome(res sim.Result, rs dram.RankStats) (outcome, error) {
	a, err := json.Marshal(res)
	if err != nil {
		return outcome{}, err
	}
	c, err := json.Marshal(rs)
	if err != nil {
		return outcome{}, err
	}
	return outcome{digest: digest(string(a) + "\n" + string(c) + "\n"), requests: res.Requests}, nil
}

func (b *cellBench) traced(tr *tracer, l map[string]float64) (time.Duration, outcome, error) {
	if b.consumed == nil {
		return 0, outcome{}, fmt.Errorf("no rep recorded the stream lengths")
	}
	op := tr.begin(0, "cell")
	var streams []cpu.Stream
	build := tr.do(op, "workload.build", func() { streams = b.streams() })
	var sys *sim.System
	sysBuild := tr.do(op, "sim.build", func() { sys = sim.NewSystem(b.cfg, streams) })
	var res sim.Result
	runWall := tr.do(op, "sim.run", func() { res = sys.Run(b.until) })
	drain := b.streams()
	short := false
	streamWall := tr.do(op, "workload.stream", func() {
		for i, s := range drain {
			for k := int64(0); k < b.consumed[i]; k++ {
				if _, ok := s.Next(); !ok {
					short = true
				}
			}
		}
	})
	tr.end(op)
	if short {
		return 0, outcome{}, fmt.Errorf("a fresh stream ended before its recorded length")
	}
	if err := b.check(res); err != nil {
		return 0, outcome{}, err
	}
	rs := sys.Rank.Stats()
	addResults(l, []sim.Result{res})
	l["dram.acts"] = float64(rs.Activates)
	l["dram.row_hits"] = float64(rs.RowHits)
	l["dram.row_misses"] = float64(rs.RowMisses)
	l["dram.row_streams"] = float64(rs.RowStreams)
	l["dram.refreshes"] = float64(rs.Refreshes)
	if sys.Monitor != nil {
		l["security.acts"] = float64(sys.Monitor.TotalACTs())
	}
	l["workload.build_ms"] = ms(build)
	l["sim.build_ms"] = ms(sysBuild)
	l["sim.run_ms"] = ms(runWall)
	l["sim.ns_per_req"] = float64(runWall.Nanoseconds()) / float64(max(res.Requests, 1))
	l["workload.stream_ms"] = ms(streamWall)

	// Attribution: each layer's event count times its micro's ns/op. The
	// tracker term prices every ACT at the hot-path cost, a lower bound.
	lookups := float64(res.MitStats.TotalLookups())
	l["attrib.stream_ms"] = l["cpu.requests"] * l["perf.workload_stream_ns"] / 1e6
	l["attrib.translate_ms"] = lookups * l["perf.mitigation_translate_ns"] / 1e6
	l["attrib.dram_ms"] = l["cpu.requests"] * l["perf.dram_access_ns"] / 1e6
	l["attrib.tracker_ms"] = l["dram.acts"] * l["perf.tracker_act_hot_ns"] / 1e6
	sum := l["attrib.stream_ms"] + l["attrib.translate_ms"] + l["attrib.dram_ms"] + l["attrib.tracker_ms"]
	l["attrib.residual_frac"] = 1 - sum/l["sim.run_ms"]

	out, err := cellOutcome(res, rs)
	return runWall, out, err
}

// addResults sets the controller and mitigation counters of the layer
// metrics from a cell's Result, or from the sum over a grid's cells.
func addResults(l map[string]float64, results []sim.Result) {
	var latency dram.PS
	for _, res := range results {
		l["cpu.requests"] += float64(res.Requests)
		l["memctrl.epochs"] += float64(res.CtrlStats.Epochs)
		latency += res.CtrlStats.TotalLatency
		ms := res.MitStats
		l["core.lookups_bloom"] += float64(ms.Lookups[mitigation.LookupBloomFiltered])
		l["core.lookups_cache_hit"] += float64(ms.Lookups[mitigation.LookupCacheHit])
		l["core.lookups_singleton"] += float64(ms.Lookups[mitigation.LookupSingleton])
		l["core.lookups_dram"] += float64(ms.Lookups[mitigation.LookupDRAM])
		l["core.migrations"] += float64(ms.RowMigrations)
		l["core.table_dram_accesses"] += float64(ms.TableDRAMAccesses)
		l["core.channel_busy_ms"] += float64(ms.ChannelBusy) / 1e9
		l["security.max_window_acts"] = max(l["security.max_window_acts"], float64(res.MaxWindowACTs))
	}
	l["memctrl.avg_latency_ns"] = float64(latency) / 1e3 / max(l["cpu.requests"], 1)
}

// gridBench is the bench-quick grid: every configured workload x cell
// through a Lab with an on-disk cell cache, then the figure renders. The
// cold variant simulates into a fresh cache directory each rep; the warm
// variant serves every rep from a directory one cold fill populated.
type gridBench struct {
	warm    bool
	cfg     config
	opts    repro.LabOptions
	renders []repro.Renderer
	dir     string // the run's scratch directory

	filled string // warm: the cache directory the cold fill populated
	want   string // warm: the cold fill's rendered bytes

	stores   int // cache directories created so far
	lab      *repro.Lab
	store    *cellcache.Store
	storeDir string
	out      string // the last pass's rendered bytes
}

// newStoreDir names a fresh cache directory under the run's scratch dir.
func (g *gridBench) newStoreDir() string {
	g.stores++
	return filepath.Join(g.dir, fmt.Sprintf("cache-%d", g.stores))
}

// open builds a fresh Lab over a cell cache in dir.
func (g *gridBench) open(dir string) error {
	store, err := cellcache.New(dir)
	if err != nil {
		return err
	}
	g.lab = repro.NewLab(g.opts)
	g.lab.AttachCache(store)
	g.store, g.storeDir = store, dir
	return nil
}

// render renders the configured figures in order.
func (g *gridBench) render(tr *tracer, parent int64) error {
	var b strings.Builder
	for _, r := range g.renders {
		var sec string
		var err error
		fn := func() { sec, err = repro.RenderSection(g.lab, r) }
		if tr != nil {
			tr.do(parent, "render."+r.Name, fn)
		} else {
			fn()
		}
		if err != nil {
			return err
		}
		b.WriteString(sec)
	}
	g.out = b.String()
	return nil
}

// pass is one grid op: Precompute over the grid, then the renders.
func (g *gridBench) pass() error {
	if err := g.lab.Precompute(g.cfg.gridCells...); err != nil {
		return err
	}
	return g.render(nil, 0)
}

// gridSize is the number of (workload, cell) pairs a cold pass simulates.
func (g *gridBench) gridSize() int64 { return int64(len(g.opts.Workloads) * len(g.cfg.gridCells)) }

// normalised is false. A grid's 4 ms cells keep working sets of a few
// MiB, and its CPU time follows the host's load much less than a full
// cell's: over six sets of ten runs, the per-set median moved by 11% while
// the cell's moved by 65%, so normalising it would import the reference
// batch's swings.
func (g *gridBench) normalised() bool { return false }

// init runs cold passes into fresh cache directories before the reps;
// each pass's CPU time, NewLab and the store open included, is a set-up
// sample. grid_quick_warm runs warmFills of them and serves its reps from
// the last one's directory. grid_quick_cold runs one, the process's first
// cold pass, where first-use work of the process and work moved out of a
// pass show. A Lab's own set-up, NewLab plus a store open, takes about
// 5 us: its median over a run moved by up to 2x from run to run, too
// little to bound.
func (g *gridBench) init() ([]float64, error) {
	fills := 1
	if g.warm {
		fills = max(g.cfg.warmFills, 1)
	}
	var setup []float64
	for i := 0; i < fills; i++ {
		g.lab, g.store = nil, nil
		freshHeap()
		dir := g.newStoreDir()
		c0 := cpuTime()
		if err := g.open(dir); err != nil {
			return nil, err
		}
		if err := g.pass(); err != nil {
			return nil, err
		}
		setup = append(setup, (cpuTime() - c0).Seconds())
		if st := g.lab.CellStats(); st.Simulated != g.gridSize() {
			return nil, fmt.Errorf("cold fill simulated %d cells, want %d", st.Simulated, g.gridSize())
		}
		if g.filled != "" {
			if g.out != g.want {
				return nil, fmt.Errorf("cold fills rendered different bytes")
			}
			os.RemoveAll(g.filled)
		}
		g.filled, g.want = dir, g.out
	}
	if !g.warm {
		os.RemoveAll(g.filled)
		g.filled = ""
	}
	return setup, nil
}

func (g *gridBench) prepare() error {
	if g.warm {
		return g.open(g.filled)
	}
	return g.open(g.newStoreDir())
}

func (g *gridBench) run() error { return g.pass() }

func (g *gridBench) verify() (outcome, error) {
	if err := g.checkStats(g.lab.CellStats()); err != nil {
		return outcome{}, err
	}
	out, err := g.outcome()
	if !g.warm {
		os.RemoveAll(g.storeDir)
	}
	g.lab, g.store = nil, nil // let the next rep's heap reset collect them
	return out, err
}

// checkStats requires a cold pass to simulate every grid cell once and a
// warm pass to simulate none, rendering the cold bytes.
func (g *gridBench) checkStats(st sim.CellStats) error {
	if g.warm {
		if st.Simulated != 0 {
			return fmt.Errorf("warm pass simulated %d cells, want 0", st.Simulated)
		}
		if g.out != g.want {
			return fmt.Errorf("warm pass rendered different bytes from the cold fill")
		}
		return nil
	}
	if st.Simulated != g.gridSize() || st.CacheHits != 0 {
		return fmt.Errorf("cold pass simulated %d cells with %d cache hits, want %d and 0",
			st.Simulated, st.CacheHits, g.gridSize())
	}
	return nil
}

// outcome digests the rendered bytes and totals the grid's simulated
// requests (served from the Lab's memo, so it simulates nothing).
func (g *gridBench) outcome() (outcome, error) {
	results, err := g.results()
	var reqs int64
	for _, res := range results {
		reqs += res.Requests
	}
	return outcome{digest: digest(g.out), requests: reqs}, err
}

// results returns every grid cell's Result.
func (g *gridBench) results() ([]sim.Result, error) {
	var out []sim.Result
	for _, name := range g.opts.Workloads {
		for _, c := range g.cfg.gridCells {
			run, err := g.lab.Run(name, c.Scheme, c.TRH)
			if err != nil {
				return nil, err
			}
			out = append(out, run.Result)
		}
	}
	return out, nil
}

// traced runs one grid op with a span per Lab.Run call, driven from a pool
// of parallel() workers with every baseline cell queued first, then the
// renders; it then times the cache layer entry by entry.
func (g *gridBench) traced(tr *tracer, l map[string]float64) (time.Duration, outcome, error) {
	dir := g.filled
	if !g.warm {
		dir = g.newStoreDir()
	}
	if err := g.open(dir); err != nil {
		return 0, outcome{}, err
	}
	type job struct {
		name string
		cell sim.GridCell
	}
	var jobs []job
	for _, base := range []bool{true, false} {
		for _, name := range g.opts.Workloads {
			for _, c := range g.cfg.gridCells {
				if (c.Scheme == sim.SchemeBaseline) == base {
					jobs = append(jobs, job{name, c})
				}
			}
		}
	}
	op := tr.begin(0, "grid")
	workers := parallel()
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	poolStart := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[w] = fmt.Errorf("panic: %v", p)
				}
			}()
			for k := int(next.Add(1)) - 1; k < len(jobs); k = int(next.Add(1)) - 1 {
				j := jobs[k]
				name := "lab.run.cell"
				if j.cell.Scheme == sim.SchemeBaseline {
					name = "lab.run.baseline"
				}
				var err error
				tr.do(op, name, func() { _, err = g.lab.Run(j.name, j.cell.Scheme, j.cell.TRH) })
				if err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	pool := time.Since(poolStart)
	for _, err := range errs {
		if err != nil {
			return 0, outcome{}, err
		}
	}
	render := tr.begin(op, "lab.render")
	err := g.render(tr, render)
	renderWall := tr.end(render)
	opWall := tr.end(op)
	if err != nil {
		return 0, outcome{}, err
	}
	st := g.lab.CellStats()
	if err := g.checkStats(st); err != nil {
		return 0, outcome{}, err
	}
	out, err := g.outcome()
	if err != nil {
		return 0, outcome{}, err
	}
	results, err := g.results()
	if err != nil {
		return 0, outcome{}, err
	}
	addResults(l, results)
	cs := g.store.Stats()
	base, cells := tr.durations("lab.run.baseline"), tr.durations("lab.run.cell")
	l["sim.baseline_ms_p50"] = percentile(base, 0.5)
	l["sim.baseline_ms_sum"] = sum(base)
	l["sim.cell_ms_p50"] = percentile(cells, 0.5)
	l["sim.cell_ms_p90"] = percentile(cells, 0.9)
	l["sim.cell_ms_sum"] = sum(cells)
	l["flight.idle_frac"] = 1 - (sum(base)+sum(cells))/(float64(workers)*ms(pool))
	l["lab.render_ms"] = ms(renderWall)
	l["trace.captures"] = float64(st.TraceCaptures)
	l["trace.replays"] = float64(st.TraceReplays)
	l["sim.cells_simulated"] = float64(st.Simulated)
	l["sim.deduped"] = float64(st.Deduped())
	l["cellcache.puts"] = float64(cs.Puts)
	l["cellcache.disk_hits"] = float64(cs.DiskHits)
	l["attrib.residual_frac"] = 1 // a grid op is not priced per request

	// The cache layer, entry by entry: the cold grid re-Puts every entry
	// into a fresh directory; the warm grid Gets every file through a
	// fresh Store.
	if err := g.timeCache(tr, l); err != nil {
		return 0, outcome{}, err
	}
	return opWall, out, nil
}

// timeCache times the cache layer entry by entry, as one op: the cold
// grid re-Puts every entry of its store into a fresh directory; the warm
// grid Gets every file through a fresh Store.
func (g *gridBench) timeCache(tr *tracer, l map[string]float64) error {
	entries, err := cacheEntries(g.storeDir)
	if err != nil {
		return err
	}
	metric, name := "cellcache.put_us", "cellcache.put"
	if g.warm {
		metric, name = "cellcache.get_us", "cellcache.get"
	}
	fresh, err := cellcache.New(g.storeDir)
	if !g.warm {
		fresh, err = cellcache.New(g.newStoreDir())
	}
	if err != nil {
		return err
	}
	op := tr.begin(0, "cellcache")
	defer tr.end(op)
	var lat []float64
	for _, e := range entries {
		var d time.Duration
		var ok bool
		if g.warm {
			d = tr.do(op, name, func() { _, ok = fresh.Get(e.key) })
		} else {
			var val []byte
			if val, ok = g.store.Get(e.key); ok {
				d = tr.do(op, name, func() { fresh.Put(e.key, val) })
			}
			l["cellcache.bytes"] += float64(e.size)
		}
		if !ok {
			return fmt.Errorf("cache entry %s did not read back", e.key)
		}
		lat = append(lat, d.Seconds()*1e6)
	}
	l[metric+"_p50"] = percentile(lat, 0.5)
	l[metric+"_p90"] = percentile(lat, 0.9)
	return nil
}

// cacheEntry is one cell-cache file.
type cacheEntry struct {
	key  string
	size int64
}

// cacheEntries lists the entry files of a cache directory (temp files and
// subdirectories are not entries).
func cacheEntries(dir string) ([]cacheEntry, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []cacheEntry
	for _, de := range des {
		if de.IsDir() || strings.HasPrefix(de.Name(), "tmp-") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			return nil, err
		}
		out = append(out, cacheEntry{de.Name(), info.Size()})
	}
	return out, nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
