package repro

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/analytic"
	"repro/internal/cellcache"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// LabOptions configures the figure-regeneration lab.
type LabOptions struct {
	// Window is the fixed instruction budget expressed as baseline
	// simulated time (default 64ms — one full refresh window, the paper's
	// metric window). Smaller windows run proportionally faster but
	// under-count threshold crossings of mid-rate rows.
	Window PS
	// Workloads selects the evaluated cases; nil means all 34 (18 SPEC +
	// 16 mixes). Use SPECWorkloads() for the fast 18-workload subset.
	Workloads []string
	// Seed drives all randomization.
	Seed uint64
	// NoCalibration turns off the two-pass baseline-IPC calibration,
	// which runs by default (see DESIGN.md).
	NoCalibration bool
	// Parallel bounds how many simulations run concurrently when a
	// figure (or Precompute) sweeps its grid (0 = GOMAXPROCS, 1 =
	// serial). Every rendered table is byte-identical at any setting:
	// cells simulate on isolated systems and the renderers read results
	// back in canonical workload/cell order (see DESIGN.md).
	Parallel int
	// Context, when set, cancels in-flight and pending simulations when
	// it is done; figure calls then return its error. Nil means
	// context.Background().
	Context context.Context
}

// AllWorkloads returns all 34 case names (18 SPEC + 16 mixes).
func AllWorkloads() []string { return sim.AllCaseNames() }

// SPECWorkloads returns the 18 SPEC rate workload names.
func SPECWorkloads() []string { return sim.SPECCaseNames() }

// Lab runs the paper's experiments over one sim.Runner, whose memo lets
// figures that need the same (workload, scheme, threshold) cell share one
// simulation. A Lab is safe for concurrent use, and every
// simulation-backed figure first fans its grid out through
// sim.Runner.Precompute (LabOptions.Parallel wide) before rendering
// serially from the memo — so tables come out byte-identical to a serial
// run at any parallelism.
type Lab struct {
	opts   LabOptions
	ctx    context.Context
	runner *sim.Runner
}

// NewLab builds a Lab. The Runner defaults Window, Seed and Parallel.
func NewLab(opts LabOptions) *Lab {
	if len(opts.Workloads) == 0 {
		opts.Workloads = sim.AllCaseNames()
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return &Lab{
		opts: opts,
		ctx:  ctx,
		runner: sim.NewRunner(sim.ExpConfig{
			Window:    opts.Window,
			Seed:      opts.Seed,
			Calibrate: !opts.NoCalibration,
			Parallel:  opts.Parallel,
		}),
	}
}

// AttachCache attaches a content-addressed result store: completed cells
// and calibrated IPCs are served from it without re-simulating and
// written back to it as they complete (see DESIGN.md "Result cache &
// incremental recomputation"). The store is shared across any number of
// configurations — the key hashes the configuration, so a changed
// option simply misses — and a lab interrupted mid-run resumes by
// rerunning over the same directory. Failed and cancelled cells never
// enter the store.
func (l *Lab) AttachCache(s *cellcache.Store) { l.runner.AttachCellCache(s) }

// CellStats reports how the lab's cell requests were satisfied: cache
// hits/misses, deduplicated requests (renders re-reading a cell
// included), and real simulations.
func (l *Lab) CellStats() sim.CellStats { return l.runner.CellStats() }

// Run measures one workload under one scheme at a threshold through the
// runner (see sim.Runner.RunCtx): memoized, coalesced with concurrent
// callers asking for the same cell, and served from an attached store.
func (l *Lab) Run(name string, scheme Scheme, trh int64) (sim.WorkloadRun, error) {
	return l.runner.RunCtx(l.ctx, name, sim.GridCell{Scheme: scheme, TRH: trh})
}

// Precompute resolves every (workload, cell) combination of the lab's
// workload set through the runner (sim.Runner.Precompute), fanning the
// grid out to at most LabOptions.Parallel concurrent workers. Figures
// call it before rendering; callers sweeping several figures can warm
// the union of their grids (e.g. PaperGrid) in one parallel pass up
// front.
func (l *Lab) Precompute(cells ...sim.GridCell) error {
	return l.runner.Precompute(l.ctx, l.opts.Workloads, cells)
}

// PaperGrid returns the plain (scheme, threshold) cells the registry's
// outputs read, those with no Variant. The Section V-F variants, Table
// II's tier cells and the Section VI-C co-run are left to the outputs
// that use them. Lab.Precompute(PaperGrid()...) warms the plain cells
// in one parallel pass.
func PaperGrid() []sim.GridCell {
	return []sim.GridCell{
		{Scheme: SchemeBaseline, TRH: 1000},
		{Scheme: SchemeAquaSRAM, TRH: 1000},
		{Scheme: SchemeAquaMemMapped, TRH: 2000},
		{Scheme: SchemeAquaMemMapped, TRH: 1000},
		{Scheme: SchemeAquaMemMapped, TRH: 500},
		{Scheme: SchemeRRS, TRH: 4000},
		{Scheme: SchemeRRS, TRH: 2000},
		{Scheme: SchemeRRS, TRH: 1000},
		{Scheme: SchemeBlockhammer, TRH: 1000},
		{Scheme: SchemeVictimRefresh, TRH: 1000},
	}
}

// normIPCTable renders normalized IPC for each workload under the cells,
// appending a geometric-mean row.
func (l *Lab) normIPCTable(title string, cells []sim.GridCell, colNames []string) (string, error) {
	cols, err := l.columns(l.opts.Workloads, cells...)
	if err != nil {
		return "", err
	}
	t := stats.NewTable(title, append([]string{"Workload"}, colNames...)...)
	for j, name := range l.opts.Workloads {
		row := []string{name}
		for _, col := range cols {
			row = append(row, fmt.Sprintf("%.3f", col[j].NormIPC))
		}
		t.AddRow(row...)
	}
	gm := []string{fmt.Sprintf("Gmean-%d", len(l.opts.Workloads))}
	for _, col := range cols {
		gm = append(gm, fmt.Sprintf("%.3f", gmeanNorm(col)))
	}
	t.AddRow(gm...)
	return t.String(), nil
}

// columns precomputes the cells over names and returns each cell's runs,
// one per name, in order.
func (l *Lab) columns(names []string, cells ...sim.GridCell) ([][]sim.WorkloadRun, error) {
	if err := l.runner.Precompute(l.ctx, names, cells); err != nil {
		return nil, err
	}
	cols := make([][]sim.WorkloadRun, len(cells))
	for i, cell := range cells {
		cols[i] = make([]sim.WorkloadRun, len(names))
		for j, name := range names {
			var err error
			if cols[i][j], err = l.runner.RunCtx(l.ctx, name, cell); err != nil {
				return nil, err
			}
		}
	}
	return cols, nil
}

// gmeanNorm is the geometric mean of the runs' normalized IPCs.
func gmeanNorm(runs []sim.WorkloadRun) float64 {
	norms := make([]float64, len(runs))
	for i, r := range runs {
		norms[i] = r.NormIPC
	}
	return stats.Geomean(norms)
}

// Figure2 renders the historical Rowhammer-threshold trend (Section II-C):
// published characterization points, a static dataset.
func Figure2() string {
	t := stats.NewTable("Figure 2: Rowhammer threshold over time",
		"Year", "DRAM", "T_RH (activations)")
	t.AddRow("2014", "DDR3", "139K")
	t.AddRow("2017", "DDR3 (new)", "22.4K")
	t.AddRow("2020", "DDR4", "10K")
	t.AddRow("2020", "LPDDR4", "4.8K")
	return t.String()
}

// Figure3 regenerates Figure 3: RRS slowdown as T_RH drops from 4K to 1K.
func (l *Lab) Figure3() (string, error) {
	cells := []sim.GridCell{
		{Scheme: SchemeRRS, TRH: 4000},
		{Scheme: SchemeRRS, TRH: 2000},
		{Scheme: SchemeRRS, TRH: 1000},
	}
	return l.normIPCTable(
		"Figure 3: Normalized IPC of RRS at T_RH = 4K / 2K / 1K (paper gmean: 0.973 / 0.924 / 0.835)",
		cells, []string{"RRS-4K", "RRS-2K", "RRS-1K"})
}

// Figure6 regenerates Figure 6: row migrations per 64ms for AQUA and RRS
// at T_RH=1K (paper averages: 1099 vs 9935).
func (l *Lab) Figure6() (string, error) {
	cols, err := l.columns(l.opts.Workloads,
		sim.GridCell{Scheme: SchemeAquaMemMapped, TRH: 1000},
		sim.GridCell{Scheme: SchemeRRS, TRH: 1000})
	if err != nil {
		return "", err
	}
	t := stats.NewTable(
		"Figure 6: Row migrations per 64ms at T_RH=1K (paper avg: AQUA 1099, RRS 9935)",
		"Workload", "AQUA", "RRS", "RRS/AQUA")
	var aquaAll, rrsAll []float64
	for j, name := range l.opts.Workloads {
		a, r := cols[0][j].Result.MigrationsPer64ms, cols[1][j].Result.MigrationsPer64ms
		aquaAll = append(aquaAll, a)
		rrsAll = append(rrsAll, r)
		ratio := "-"
		if a > 0 {
			ratio = fmt.Sprintf("%.1fx", r/a)
		}
		t.AddRow(name, fmt.Sprintf("%.0f", a), fmt.Sprintf("%.0f", r), ratio)
	}
	avgA, avgR := stats.Mean(aquaAll), stats.Mean(rrsAll)
	ratio := "-"
	if avgA > 0 {
		ratio = fmt.Sprintf("%.1fx", avgR/avgA)
	}
	t.AddRow("Average", fmt.Sprintf("%.0f", avgA), fmt.Sprintf("%.0f", avgR), ratio)
	return t.String(), nil
}

// Figure7 regenerates Figure 7: normalized IPC of AQUA (SRAM tables) and
// RRS at T_RH=1K (paper gmean: AQUA 0.982, RRS 0.835).
func (l *Lab) Figure7() (string, error) {
	cells := []sim.GridCell{
		{Scheme: SchemeAquaSRAM, TRH: 1000},
		{Scheme: SchemeRRS, TRH: 1000},
	}
	return l.normIPCTable(
		"Figure 7: Normalized IPC at T_RH=1K (paper gmean: AQUA 0.982, RRS 0.835)",
		cells, []string{"AQUA", "RRS"})
}

// Figure9 regenerates Figure 9: AQUA with SRAM vs memory-mapped tables
// (paper gmean: 0.982 vs 0.979).
func (l *Lab) Figure9() (string, error) {
	cells := []sim.GridCell{
		{Scheme: SchemeAquaSRAM, TRH: 1000},
		{Scheme: SchemeAquaMemMapped, TRH: 1000},
	}
	return l.normIPCTable(
		"Figure 9: AQUA normalized IPC, SRAM vs memory-mapped tables (paper gmean: 0.982 vs 0.979)",
		cells, []string{"AQUA-SRAM", "AQUA-MemMap"})
}

// Figure10 regenerates Figure 10: the FPT-lookup breakdown of memory-
// mapped AQUA (paper averages: 92.2% bloom-filtered, 7.3% cache hits, 0.4%
// singleton, 0.02% DRAM).
func (l *Lab) Figure10() (string, error) {
	cols, err := l.columns(l.opts.Workloads, sim.GridCell{Scheme: SchemeAquaMemMapped, TRH: 1000})
	if err != nil {
		return "", err
	}
	t := stats.NewTable(
		"Figure 10: FPT-lookup breakdown (paper avg: 92.2% bloom / 7.3% cache / 0.4% singleton / 0.02% DRAM)",
		"Workload", "Bloom-reset", "FPT-Cache hit", "Singleton", "DRAM")
	var b, c, s, d []float64
	for j, name := range l.opts.Workloads {
		bd := sim.BreakdownOf(cols[0][j].Result)
		b = append(b, bd.BloomFiltered)
		c = append(c, bd.CacheHit)
		s = append(s, bd.Singleton)
		d = append(d, bd.DRAM)
		t.AddRow(name, pct(bd.BloomFiltered), pct(bd.CacheHit), pct(bd.Singleton), pct(bd.DRAM))
	}
	t.AddRow("Average", pct(stats.Mean(b)), pct(stats.Mean(c)), pct(stats.Mean(s)), pct(stats.Mean(d)))
	return t.String(), nil
}

// Figure11 regenerates Figure 11: AQUA's sensitivity to the Rowhammer
// threshold (paper slowdowns: 0.2% at 2K, 2.1% at 1K, 6.8% at 500).
func (l *Lab) Figure11() (string, error) {
	cols, err := l.columns(l.opts.Workloads,
		sim.GridCell{Scheme: SchemeAquaMemMapped, TRH: 2000},
		sim.GridCell{Scheme: SchemeAquaMemMapped, TRH: 1000},
		sim.GridCell{Scheme: SchemeAquaMemMapped, TRH: 500})
	if err != nil {
		return "", err
	}
	t := stats.NewTable(
		"Figure 11: AQUA (memory-mapped) sensitivity to T_RH (paper slowdown: 0.2% / 2.1% / 6.8%)",
		"T_RH", "Gmean norm. IPC", "Slowdown")
	for i, trh := range []int64{2000, 1000, 500} {
		gm := gmeanNorm(cols[i])
		t.AddRow(fmt.Sprintf("%d", trh), fmt.Sprintf("%.3f", gm), pct(1-gm))
	}
	return t.String(), nil
}

// SensitivityVF regenerates the Section V-F structure-sensitivity study:
// AQUA's slowdown as the bloom filter is varied from 8KB to 32KB (paper:
// 2.3% / 2.1% / 2.0%) and the FPT-Cache from 8KB to 32KB (paper: flat at
// 2.1%). Bloom bytes map to group sizes (8KB = 32 rows/bit, 16KB = 16,
// 32KB = 8); cache bytes to entry counts (2K/4K/8K), each a variant cell.
func (l *Lab) SensitivityVF() (string, error) {
	variants := []struct {
		label, size string
		variant     sim.Variant
	}{
		{"bloom-filter", "8 KB", sim.Variant{BloomGroupSize: 32}},
		{"bloom-filter", "16 KB", sim.Variant{BloomGroupSize: 16}},
		{"bloom-filter", "32 KB", sim.Variant{BloomGroupSize: 8}},
		{"fpt-cache", "8 KB", sim.Variant{FPTCacheEntries: 2048}},
		{"fpt-cache", "16 KB", sim.Variant{FPTCacheEntries: 4096}},
		{"fpt-cache", "32 KB", sim.Variant{FPTCacheEntries: 8192}},
	}
	cells := make([]sim.GridCell, len(variants))
	for i, v := range variants {
		cells[i] = sim.GridCell{Scheme: SchemeAquaMemMapped, TRH: 1000, Variant: v.variant}
	}
	cols, err := l.columns(l.opts.Workloads, cells...)
	if err != nil {
		return "", err
	}
	t := stats.NewTable(
		"Section V-F: sensitivity to bloom-filter and FPT-Cache size (paper: 2.3%/2.1%/2.0% and flat)",
		"Structure", "Size", "Gmean norm. IPC", "Slowdown")
	for i, v := range variants {
		gm := gmeanNorm(cols[i])
		t.AddRow(v.label, v.size, fmt.Sprintf("%.3f", gm), pct(1-gm))
	}
	return t.String(), nil
}

// Figure12 regenerates Figure 12: the analytical relative-migration model
// r(f) of Appendix A.
func Figure12() string {
	t := stats.NewTable(
		"Figure 12: Analytical model — RRS/AQUA row-migration ratio r(f) = (2+4f)/f",
		"f", "r(f)")
	for _, f := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		t.AddRow(fmt.Sprintf("%.2f", f), fmt.Sprintf("%.1f", analytic.RelativeMigrations(f)))
	}
	return t.String()
}

// Table1 renders Table I: the baseline system configuration.
func Table1() string {
	geom := dram.Baseline()
	tm := dram.DDR4()
	t := stats.NewTable("Table I: Baseline system configuration", "Parameter", "Value")
	t.AddRow("Out-of-order cores", "4 cores at 3GHz (interval model)")
	t.AddRow("MLP per core", "4 outstanding misses")
	t.AddRow("Memory size", fmt.Sprintf("%d GB DDR4", geom.CapacityBytes()/(1<<30)))
	t.AddRow("tRCD-tCL-tRP-tRC", fmt.Sprintf("%.1f-%.1f-%.1f-%.0f ns",
		float64(tm.TRCD)/1e3, float64(tm.TCL)/1e3, float64(tm.TRP)/1e3, float64(tm.TRC)/1e3))
	t.AddRow("tCCD_S, tCCD_L", fmt.Sprintf("%.1f ns, %.0f ns",
		float64(tm.TCCDS)/1e3, float64(tm.TCCDL)/1e3))
	t.AddRow("Banks x Ranks x Channels", fmt.Sprintf("%d x 1 x 1", geom.Banks))
	t.AddRow("Rows per bank", fmt.Sprintf("%dK", geom.RowsPerBank/1024))
	t.AddRow("Size of row", fmt.Sprintf("%d KB", geom.RowBytes/1024))
	t.AddRow("Refresh (tREFI / tRFC / tREFW)", fmt.Sprintf("%.1f us / %.0f ns / %.0f ms",
		float64(tm.TREFI)/1e6, float64(tm.TRFC)/1e3, float64(tm.TREFW)/1e9))
	return t.String()
}

// CoRunReport regenerates the Section VI-C quality-of-service experiment
// from one co-run cell: a DoS attacker on one core, a benign workload on
// the rest; the victims' slowdown attributable to AQUA's migrations must
// stay under the 2.95x analytical bound.
func (l *Lab) CoRunReport(workloadName string) (string, error) {
	run, err := l.runner.RunCtx(l.ctx, workloadName, sim.GridCell{
		Scheme: SchemeAquaSRAM, TRH: 1000, Variant: sim.Variant{Measure: sim.MeasureCoRun}})
	if err != nil {
		return "", err
	}
	res := run.CoRun
	bound := analytic.WorstCaseSlowdown(analytic.BaselineRQAParams(500))
	var b strings.Builder
	fmt.Fprintf(&b, "Section VI-C co-run: DoS attacker on core 0, %s on cores 1-3\n", workloadName)
	fmt.Fprintf(&b, "  victim IPC solo:            %.3f\n", res.SoloVictimIPC)
	fmt.Fprintf(&b, "  victim IPC under attack:    %.3f (unprotected)\n", res.BaselineVictimIPC)
	fmt.Fprintf(&b, "  victim IPC under attack:    %.3f (AQUA)\n", res.VictimIPC)
	fmt.Fprintf(&b, "  AQUA-attributable slowdown: %.2fx (analytical bound %.2fx)\n",
		res.AttackSlowdown, bound)
	fmt.Fprintf(&b, "  mitigations during co-run:  %d; invariant violated: %v\n",
		run.Result.MitStats.Mitigations, run.Result.Violated)
	return b.String(), nil
}

// Table2 regenerates Table II: measured MPKI-driven workload
// characterization vs the paper's reference values, from tier cells.
func (l *Lab) Table2() (string, error) {
	var names []string
	for _, name := range l.opts.Workloads {
		if _, ok := workload.ByName(name); ok {
			// Table II covers the 18 SPEC workloads only; mixes are skipped.
			names = append(names, name)
		}
	}
	cols, err := l.columns(names,
		sim.GridCell{Scheme: SchemeBaseline, TRH: 1000, Variant: sim.Variant{Measure: sim.MeasureTiers}})
	if err != nil {
		return "", err
	}
	t := stats.NewTable(
		"Table II: Workload characteristics (measured on the synthetic streams; paper values in parentheses)",
		"Workload", "MPKI", "ACT-166+", "ACT-500+", "ACT-1K+")
	var sums [3]float64
	for i, name := range names {
		spec, _ := workload.ByName(name)
		c := cols[0][i].Tiers
		t.AddRow(name,
			fmt.Sprintf("%.2f", spec.MPKI),
			fmt.Sprintf("%d (%d)", c.ACT166, spec.Rows166),
			fmt.Sprintf("%d (%d)", c.ACT500, spec.Rows500),
			fmt.Sprintf("%d (%d)", c.ACT1K, spec.Rows1K))
		sums[0] += float64(c.ACT166)
		sums[1] += float64(c.ACT500)
		sums[2] += float64(c.ACT1K)
	}
	if n := float64(len(names)); n > 0 {
		t.AddRow("Average", "",
			fmt.Sprintf("%.0f (1665)", sums[0]/n),
			fmt.Sprintf("%.0f (694)", sums[1]/n),
			fmt.Sprintf("%.0f (57)", sums[2]/n))
	}
	return t.String(), nil
}

// Table3 regenerates Table III: quarantine-area sizing vs effective
// threshold (closed-form; matches the paper exactly).
func Table3() string {
	t := stats.NewTable("Table III: Size of quarantine area vs effective threshold",
		"Threshold (A)", "Rmax (rows)", "Quarantine (MB)", "DRAM overhead")
	for _, row := range analytic.Table3() {
		t.AddRow(fmt.Sprintf("%d", row.EffectiveThreshold),
			fmt.Sprintf("%d", row.RMax),
			fmt.Sprintf("%.0f", row.QuarantineMB),
			pct(row.DRAMOverhead))
	}
	return t.String()
}

// Table4 regenerates Table IV: victim refresh vs AQUA.
func (l *Lab) Table4() (string, error) {
	cols, err := l.columns(l.opts.Workloads,
		sim.GridCell{Scheme: SchemeVictimRefresh, TRH: 1000},
		sim.GridCell{Scheme: SchemeAquaMemMapped, TRH: 1000})
	if err != nil {
		return "", err
	}
	t := stats.NewTable("Table IV: Comparison of AQUA with victim refresh",
		"Attribute", "Victim-Refresh", "AQUA")
	t.AddRow("Slowdown (measured)", pct(1-gmeanNorm(cols[0])), pct(1-gmeanNorm(cols[1])))
	t.AddRow("Mitigates classic Rowhammer", "yes", "yes")
	t.AddRow("Mitigates complex patterns (Half-Double)", "NO", "yes")
	t.AddRow("Works without knowing DRAM mapping", "NO", "yes")
	return t.String(), nil
}

// Table5 regenerates Table V: CROW copy-row provisioning (closed-form).
func Table5() string {
	t := stats.NewTable("Table V: Rowhammer threshold tolerated by CROW (512-row subarray)",
		"Copy-Rows", "DRAM overhead", "Aggressors", "T_RH tolerated")
	for _, row := range analytic.Table5() {
		t.AddRow(fmt.Sprintf("%d", row.CopyRows),
			pct(row.DRAMOverhead),
			fmt.Sprintf("%d", row.Aggressors),
			fmt.Sprintf("%d", row.TRHTolerated))
	}
	return t.String()
}

// Table6 regenerates Table VI: the scheme comparison at T_RH=1K, combining
// measured slowdowns with the paper's storage analysis.
func (l *Lab) Table6() (string, error) {
	cols, err := l.columns(l.opts.Workloads,
		sim.GridCell{Scheme: SchemeBlockhammer, TRH: 1000},
		sim.GridCell{Scheme: SchemeRRS, TRH: 1000},
		sim.GridCell{Scheme: SchemeAquaMemMapped, TRH: 1000})
	if err != nil {
		return "", err
	}
	bh, rr, aq := pct(1-gmeanNorm(cols[0])), pct(1-gmeanNorm(cols[1])), pct(1-gmeanNorm(cols[2]))

	storage := analytic.ComputeStorage(dram.Baseline(), analytic.BaselineRQAParams(500).RMax())
	wc := analytic.WorstCaseSlowdown(analytic.BaselineRQAParams(500))
	ritMB := float64(analytic.RRSRITBytes(dram.DDR4(), 16, 166)) / (1 << 20)

	t := stats.NewTable("Table VI: Comparison of mitigation schemes at T_RH=1K (paper slowdowns: BH 36%, RRS 19.8%, AQUA 2.1%)",
		"Metric", "Blockhammer", "CROW", "RRS", "AQUA")
	t.AddRow("SRAM for mapping tables", "n/a", "26 MB",
		fmt.Sprintf("%.1f MB", ritMB),
		fmt.Sprintf("%d KB", storage.SRAMTotalMemMapped()/1024))
	t.AddRow("DRAM storage overhead", "0%", "1060%", "0%",
		pct(float64(storage.DRAMTotal())/float64(dram.Baseline().CapacityBytes())))
	t.AddRow("Normalized perf. loss (measured)", bh, "<0.1%", rr, aq)
	t.AddRow("Worst-case slowdown", "1280x", "<1%", "11x", fmt.Sprintf("%.2fx", wc))
	t.AddRow("Commodity DRAM", "yes", "NO", "yes", "yes")
	return t.String(), nil
}

// Table7 regenerates Appendix B's Table VII: SRAM overheads including
// trackers.
func Table7() string {
	t := stats.NewTable("Table VII: SRAM overheads of RRS and AQUA including trackers",
		"Structure", "RRS-MG", "AQUA-MG", "RRS-Hydra", "AQUA-Hydra")
	for _, row := range analytic.Table7() {
		t.AddRow(row.Structure, kb(row.RRSMG), kb(row.AquaMG), kb(row.RRSHydra), kb(row.AquaHydra))
	}
	return t.String()
}

// PowerReport regenerates Section V-H as a measurement: the IDD-model
// DRAM power of baseline vs AQUA (memory-mapped) runs, averaged over the
// lab's workloads, plus the paper's CACTI SRAM constants. The paper
// reports +0.7% (8.5mW) DRAM and 13.6mW SRAM.
func (l *Lab) PowerReport() (string, error) {
	cols, err := l.columns(l.opts.Workloads,
		sim.GridCell{Scheme: SchemeBaseline, TRH: 1000},
		sim.GridCell{Scheme: SchemeAquaMemMapped, TRH: 1000})
	if err != nil {
		return "", err
	}
	var basePW, aquaPW []float64
	for j, base := range cols[0] {
		if base.Result.DRAMPowerMW > 0 {
			basePW = append(basePW, base.Result.DRAMPowerMW)
			aquaPW = append(aquaPW, cols[1][j].Result.DRAMPowerMW)
		}
	}
	pb, pa := stats.Mean(basePW), stats.Mean(aquaPW)
	var b strings.Builder
	fmt.Fprintf(&b, "Section V-H: power (paper: DRAM +0.7%% = 8.5 mW; SRAM 13.6 mW)\n")
	fmt.Fprintf(&b, "  DRAM (IDD model, avg over %d workloads): baseline %.2f mW, AQUA %.2f mW (+%.3f mW, +%.3f%%)\n",
		len(basePW), pb, pa, pa-pb, safePct(pa-pb, pb))
	sp := analytic.PaperPower()
	fmt.Fprintf(&b, "  SRAM (CACTI constants): bloom %.1f + FPT-Cache %.1f + copy buffer %.1f = %.1f mW\n",
		sp.BloomMilliwatts, sp.FPTCacheMilliwatts, sp.CopyBufferMilliwatts, sp.SRAMTotalMilliwatts())
	return b.String(), nil
}

func safePct(delta, base float64) float64 {
	if base == 0 {
		return 0
	}
	return delta / base * 100
}

// StorageReport renders the Section V-G storage accounting computed from
// first principles for the baseline configuration.
func StorageReport() string {
	rqa := analytic.BaselineRQAParams(500).RMax()
	s := analytic.ComputeStorage(dram.Baseline(), rqa)
	var b strings.Builder
	fmt.Fprintf(&b, "AQUA storage at T_RH=1K (RQA = %d rows)\n", rqa)
	fmt.Fprintf(&b, "  SRAM tables (Section IV-C): FPT %d KB + RPT %d KB = %d KB (paper: 172 KB)\n",
		s.FPTSRAMBytes/1024, s.RPTSRAMBytes/1024, s.SRAMTotalSRAMVariant()/1024)
	fmt.Fprintf(&b, "  Memory-mapped SRAM (Section V-G): bloom %d KB + FPT-Cache %d KB + copy buffer %d KB + pinned %.1f KB = %.1f KB (paper: 41 KB)\n",
		s.BloomBytes/1024, s.FPTCacheBytes/1024, s.CopyBufferBytes/1024,
		float64(s.PinnedFPTBytes)/1024, float64(s.SRAMTotalMemMapped())/1024)
	fmt.Fprintf(&b, "  DRAM: quarantine %.0f MB + FPT %.1f MB + RPT %.1f MB = %.0f MB (%.2f%% of 16 GB; paper: 185 MB = 1.13%%)\n",
		float64(s.QuarantineBytes)/(1<<20), float64(s.FPTDRAMBytes)/(1<<20),
		float64(s.RPTDRAMBytes)/(1<<20), float64(s.DRAMTotal())/(1<<20),
		100*float64(s.DRAMTotal())/float64(dram.Baseline().CapacityBytes()))
	p := analytic.PaperPower()
	fmt.Fprintf(&b, "  Power (Section V-H): DRAM +%.1f mW, SRAM %.1f mW (bloom %.1f + cache %.1f + buffer %.1f)\n",
		p.DRAMMilliwatts, p.SRAMTotalMilliwatts(), p.BloomMilliwatts, p.FPTCacheMilliwatts, p.CopyBufferMilliwatts)
	return b.String()
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

func kb(bytes int) string { return fmt.Sprintf("%.1f KB", float64(bytes)/1024) }
