// Package repro is an open-source reproduction of "AQUA: Scalable
// Rowhammer Mitigation by Quarantining Aggressor Rows at Runtime" (Saxena,
// Saileshwar, Nair, Qureshi — MICRO 2022), built as a self-contained Go
// library: a transaction-level DDR4 model, the AQUA mechanism (SRAM and
// memory-mapped table variants), the baselines it is compared against
// (RRS, Blockhammer, victim refresh, CROW), calibrated SPEC-2017 workload
// generators, attack-pattern generators, and the closed-form models of the
// paper's analysis sections.
//
// The root package is the public facade: it re-exports the types needed to
// assemble a protected memory system and provides the Lab, which
// regenerates every table and figure of the paper's evaluation. The
// runnable entry points live in cmd/ (aquasim for one workload or attack
// run, figures, tracedump) and examples/.
//
// Quick start:
//
//	rank := repro.NewBaselineRank()
//	aqua := repro.NewAqua(rank, repro.AquaConfig{TRH: 1000})
//	ctrl := repro.NewController(rank, aqua)
//	done := ctrl.Submit(repro.Row(12345), false, 0) // read row 12345 at t=0
//
// or, one level up, use the simulation harness:
//
//	run, _ := repro.NewLab(repro.LabOptions{}).Run("lbm", repro.SchemeAquaMemMapped, 1000)
//	fmt.Printf("slowdown: %.1f%%\n", (1/run.NormIPC-1)*100)
package repro

import (
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/tracker"
)

// Core DRAM types.
type (
	// Rank is a transaction-level DDR4 rank model.
	Rank = dram.Rank
	// Geometry describes banks/rows/row size of a rank.
	Geometry = dram.Geometry
	// Timing holds the DDR4 timing parameters.
	Timing = dram.Timing
	// Row is a physical row identifier (flat bank-major index).
	Row = dram.Row
	// PS is simulated time in picoseconds.
	PS = dram.PS
)

// Mitigation types.
type (
	// Mitigator is the memory-controller-facing mitigation interface.
	Mitigator = mitigation.Mitigator
	// MitigationStats aggregates a scheme's activity counters.
	MitigationStats = mitigation.Stats
	// AquaConfig parameterizes the AQUA engine.
	AquaConfig = core.Config
	// AquaEngine is the AQUA mitigation engine (the paper's contribution).
	AquaEngine = core.Engine
	// Controller is the memory controller.
	Controller = memctrl.Controller
	// Tracker is an aggressor-row tracker.
	Tracker = tracker.Tracker
	// SecurityMonitor is the sliding-window Rowhammer oracle.
	SecurityMonitor = security.Monitor
)

// LookupClass classifies how an address translation resolved (Figure 10).
type LookupClass = mitigation.LookupClass

// Lookup classes (Figure 10's categories plus the SRAM/pinned paths).
const (
	LookupNone          = mitigation.LookupNone
	LookupBloomFiltered = mitigation.LookupBloomFiltered
	LookupCacheHit      = mitigation.LookupCacheHit
	LookupSingleton     = mitigation.LookupSingleton
	LookupDRAM          = mitigation.LookupDRAM
	LookupSRAM          = mitigation.LookupSRAM
	LookupPinned        = mitigation.LookupPinned
)

// AQUA table modes.
const (
	// ModeSRAM keeps FPT/RPT in SRAM (Section IV).
	ModeSRAM = core.ModeSRAM
	// ModeMemMapped stores FPT/RPT in DRAM behind a bloom filter and
	// FPT-Cache (Section V).
	ModeMemMapped = core.ModeMemMapped
)

// Simulation schemes (re-exported from internal/sim).
type Scheme = sim.Scheme

// GridCell is one keyed cell of an experiment grid, used with
// Lab.Precompute and Runner grids: a (scheme, threshold) column plus a
// sim.Variant (Section V-F sizes, Table II tiers, the Section VI-C co-run).
type GridCell = sim.GridCell

const (
	SchemeBaseline      = sim.SchemeBaseline
	SchemeAquaSRAM      = sim.SchemeAquaSRAM
	SchemeAquaMemMapped = sim.SchemeAquaMemMapped
	SchemeRRS           = sim.SchemeRRS
	SchemeBlockhammer   = sim.SchemeBlockhammer
	SchemeVictimRefresh = sim.SchemeVictimRefresh
)

// BaselineGeometry returns the paper's 16GB rank: 16 banks x 128K rows x
// 8KB rows (Table I).
func BaselineGeometry() Geometry { return dram.Baseline() }

// DDR4Timing returns the DDR4-2400 timing of Table I.
func DDR4Timing() Timing { return dram.DDR4() }

// NewBaselineRank builds the paper's baseline rank.
func NewBaselineRank() *Rank { return dram.NewRank(dram.Baseline(), dram.DDR4()) }

// NewRank builds a rank with explicit geometry and timing.
func NewRank(g Geometry, t Timing) *Rank { return dram.NewRank(g, t) }

// NewAqua builds an AQUA engine bound to a rank.
func NewAqua(rank *Rank, cfg AquaConfig) *AquaEngine { return core.New(rank, cfg) }

// NewController builds a memory controller binding a rank to a mitigation
// scheme (nil = unprotected baseline).
func NewController(rank *Rank, mit Mitigator) *Controller {
	return memctrl.New(rank, mit, memctrl.Config{})
}

// NewSecurityMonitor builds a sliding-window oracle for the given T_RH and
// attaches it to the rank.
func NewSecurityMonitor(rank *Rank, trh int) *SecurityMonitor {
	m := security.NewMonitor(trh, rank.Timing().TREFW)
	m.Attach(rank)
	return m
}
