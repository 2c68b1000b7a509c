// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its table/figure through the
// shared Lab (results are cached across benchmarks, so the grid of
// (workload, scheme, threshold) simulations runs once per process) and
// prints the rows the paper reports. Headline numbers are also exported
// as benchmark metrics.
//
// Environment knobs:
//
//	REPRO_BENCH_WINDOW_MS  simulated window per run (default 64 = one full
//	                       refresh window, the paper's metric window)
//	REPRO_BENCH_WORKLOADS  "all" (default: 18 SPEC + 16 mixes) or "spec"
//	REPRO_BENCH_PAR        concurrent simulations (default 0 = one per
//	                       core; 1 = serial). Results are identical at any
//	                       setting — only wall-clock changes.
//
// The same tables are available interactively via cmd/figures. A quick
// benchmark configuration for contributors is `make bench-quick`
// (REPRO_BENCH_WINDOW_MS=4 REPRO_BENCH_WORKLOADS=spec).
package repro

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/stats"
)

var (
	benchLab     *Lab
	benchLabOnce sync.Once
	printedOnce  sync.Map
)

// benchOptions reads the REPRO_BENCH_* environment into LabOptions.
func benchOptions() LabOptions {
	windowMS := 64
	if v := os.Getenv("REPRO_BENCH_WINDOW_MS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			windowMS = n
		}
	}
	workloads := AllWorkloads()
	if os.Getenv("REPRO_BENCH_WORKLOADS") == "spec" {
		workloads = SPECWorkloads()
	}
	parallel := 0
	if v := os.Getenv("REPRO_BENCH_PAR"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			parallel = n
		}
	}
	return LabOptions{
		Window:    dram.PS(windowMS) * dram.Millisecond,
		Workloads: workloads,
		Parallel:  parallel,
	}
}

func sharedLab() *Lab {
	benchLabOnce.Do(func() { benchLab = NewLab(benchOptions()) })
	return benchLab
}

// emit prints a regenerated table once per process.
func emit(name, table string) {
	if _, dup := printedOnce.LoadOrStore(name, true); !dup {
		fmt.Printf("\n%s\n", table)
	}
}

// gmeanNormIPC extracts the geometric-mean normalized IPC for a scheme
// cell across the lab's workloads.
func gmeanNormIPC(b *testing.B, l *Lab, scheme Scheme, trh int64) float64 {
	b.Helper()
	var norms []float64
	for _, name := range l.opts.Workloads {
		r, err := l.Run(name, scheme, trh)
		if err != nil {
			b.Fatal(err)
		}
		norms = append(norms, r.NormIPC)
	}
	return stats.Geomean(norms)
}

// --- Figures --------------------------------------------------------------

func BenchmarkFigure3RRSScaling(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		emit("figure3", out)
	}
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeRRS, 1000))*100, "slowdown-rrs-1k-%")
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeRRS, 4000))*100, "slowdown-rrs-4k-%")
}

func BenchmarkFigure6Migrations(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		emit("figure6", out)
	}
	var aqua, rrs float64
	for _, name := range l.opts.Workloads {
		a, err := l.Run(name, SchemeAquaMemMapped, 1000)
		if err != nil {
			b.Fatal(err)
		}
		r, err := l.Run(name, SchemeRRS, 1000)
		if err != nil {
			b.Fatal(err)
		}
		aqua += a.Result.MigrationsPer64ms
		rrs += r.Result.MigrationsPer64ms
	}
	n := float64(len(l.opts.Workloads))
	b.ReportMetric(aqua/n, "migr/64ms-aqua")
	b.ReportMetric(rrs/n, "migr/64ms-rrs")
}

func BenchmarkFigure7AquaPerformance(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		emit("figure7", out)
	}
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeAquaSRAM, 1000))*100, "slowdown-aqua-%")
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeRRS, 1000))*100, "slowdown-rrs-%")
}

func BenchmarkFigure9MemoryMapped(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		emit("figure9", out)
	}
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeAquaSRAM, 1000))*100, "slowdown-sram-%")
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeAquaMemMapped, 1000))*100, "slowdown-memmap-%")
}

func BenchmarkFigure10LookupBreakdown(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		emit("figure10", out)
	}
	var bloom, dramFrac float64
	for _, name := range l.opts.Workloads {
		r, err := l.Run(name, SchemeAquaMemMapped, 1000)
		if err != nil {
			b.Fatal(err)
		}
		bd := sim.BreakdownOf(r.Result)
		bloom += bd.BloomFiltered
		dramFrac += bd.DRAM
	}
	n := float64(len(l.opts.Workloads))
	b.ReportMetric(bloom/n*100, "bloom-filtered-%")
	b.ReportMetric(dramFrac/n*100, "dram-lookups-%")
}

func BenchmarkFigure11Sensitivity(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		emit("figure11", out)
	}
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeAquaMemMapped, 2000))*100, "slowdown-2k-%")
	b.ReportMetric((1-gmeanNormIPC(b, l, SchemeAquaMemMapped, 500))*100, "slowdown-500-%")
}

func BenchmarkFigure12AnalyticalModel(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = Figure12()
	}
	emit("figure12", out)
}

func BenchmarkFigure2ThresholdTrend(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = Figure2()
	}
	emit("figure2", out)
}

// --- Tables ----------------------------------------------------------------

func BenchmarkTable2Workloads(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Table2()
		if err != nil {
			b.Fatal(err)
		}
		emit("table2", out)
	}
}

func BenchmarkTable3QuarantineSize(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = Table3()
	}
	emit("table3", out)
}

func BenchmarkTable4VictimRefresh(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Table4()
		if err != nil {
			b.Fatal(err)
		}
		emit("table4", out)
	}
}

func BenchmarkTable5CROW(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = Table5()
	}
	emit("table5", out)
}

func BenchmarkTable6Comparison(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		out, err := l.Table6()
		if err != nil {
			b.Fatal(err)
		}
		emit("table6", out)
	}
}

func BenchmarkTable7Storage(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = Table7()
		out += "\n" + StorageReport()
	}
	emit("table7", out)
}

// --- Section VI-C: worst-case DoS bound -------------------------------------

func BenchmarkSection6CWorstCaseDoS(b *testing.B) {
	region := sim.VisibleRegion(sim.Config{})
	run := func(scheme Scheme) dram.PS {
		s := attack.NewRotatingDoS(region.Geom, region.VisibleRowsPerBank, 500, 200_000)
		sys := sim.NewSystem(sim.Config{Scheme: scheme, TRH: 1000, Cores: 1, CoreCfg: cpu.Config{MLP: 4}},
			[]cpu.Stream{s})
		return sys.Run(0).SimTime
	}
	var slowdown float64
	for i := 0; i < b.N; i++ {
		base := run(SchemeBaseline)
		aqua := run(SchemeAquaSRAM)
		slowdown = float64(aqua) / float64(base)
	}
	b.ReportMetric(slowdown, "dos-slowdown-x")
	emit("section6c", fmt.Sprintf(
		"Section VI-C worst-case DoS: measured %.2fx (analytical bound 2.95x)", slowdown))
}

func BenchmarkSection5FSensitivity(b *testing.B) {
	l := sharedLab()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = l.SensitivityVF()
		if err != nil {
			b.Fatal(err)
		}
	}
	emit("section5f", out)
}

func BenchmarkSection5HPower(b *testing.B) {
	l := sharedLab()
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = l.PowerReport()
		if err != nil {
			b.Fatal(err)
		}
	}
	emit("section5h", out)
}
