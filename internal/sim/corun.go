package sim

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/trace"
)

// CoRunResult reports the Section VI-C quality-of-service experiment: one
// core runs the worst-case DoS pattern while the remaining cores run a
// benign workload; the victim cores' IPC under the mitigation, relative to
// their IPC when co-running with the same attacker on an *unprotected*
// system, shows how much extra interference the mitigation's migrations
// add on top of the attack's own bandwidth use. The protected run itself
// (mitigations, security outcome) is the co-run cell's Result.
type CoRunResult struct {
	// VictimIPC is the benign cores' aggregate IPC with the attacker
	// present, under the scheme.
	VictimIPC float64
	// BaselineVictimIPC is the same with no mitigation.
	BaselineVictimIPC float64
	// SoloVictimIPC is the benign cores' IPC with no attacker and no
	// mitigation: core 0 idles on an empty stream.
	SoloVictimIPC float64
	// AttackSlowdown is the mitigation-vs-baseline degradation of the
	// victims: BaselineVictimIPC / VictimIPC.
	AttackSlowdown float64
}

// coRun measures a co-run cell's three legs over min(Window, 8 ms) and
// returns them with the protected leg's run.
func (r *Runner) coRun(ctx context.Context, name string, cell GridCell) (CoRunResult, Result, error) {
	window := min(r.cfg.Window, 8*dram.Millisecond) // no full refresh window needed
	var ipc [3]float64
	var res Result
	for i, leg := range []struct {
		scheme   Scheme
		attacked bool
	}{{SchemeBaseline, false}, {SchemeBaseline, true}, {cell.Scheme, true}} {
		var err error
		if ipc[i], res, err = r.coRunLeg(ctx, name, leg.scheme, cell.TRH, window, leg.attacked); err != nil {
			return CoRunResult{}, Result{}, err
		}
	}
	co := CoRunResult{SoloVictimIPC: ipc[0], BaselineVictimIPC: ipc[1], VictimIPC: ipc[2]}
	if ipc[2] > 0 {
		co.AttackSlowdown = ipc[1] / ipc[2]
	}
	return co, res, nil
}

// coRunLeg runs one monitored leg: core 0 runs the rotating DoS pattern,
// or idles, beside the workload's nominal-IPC-1.0 streams from the trace
// tier. It returns the victims' aggregate IPC and the leg's run.
func (r *Runner) coRunLeg(ctx context.Context, name string, scheme Scheme, trh int64, window dram.PS, attacked bool) (float64, Result, error) {
	if window <= 0 {
		return 0, Result{}, fmt.Errorf("sim: co-run window must be positive")
	}
	specs, err := caseSpecs(name)
	if err != nil {
		return 0, Result{}, err
	}
	streams := make([]cpu.Stream, paperCores)
	streams[0] = trace.NewSliceStream(nil)
	if attacked {
		streams[0] = attack.NewRotatingDoS(r.region.Geom, r.region.VisibleRowsPerBank, max(trh/2, 1), 1<<40)
	}
	for i := 1; i < len(streams); i++ {
		streams[i] = r.replayStream(specs[i], i, 1.0, requestBudget(window, 1.0, specs[i].MPKI), true)
	}
	sys, err := NewSystemE(Config{
		TRH:     trh,
		Scheme:  scheme,
		Cores:   paperCores,
		Seed:    r.cfg.Seed,
		Monitor: true,
	}, streams)
	if err != nil {
		return 0, Result{}, err
	}
	res, err := sys.RunCtx(ctx, window)
	if err != nil {
		return 0, Result{}, err
	}
	var instr int64
	var end dram.PS
	for _, c := range sys.Cores[1:] {
		instr += c.InstrRetired()
		end = max(end, c.FinishTime())
	}
	end = min(end, window)
	if end <= 0 {
		return 0, Result{}, fmt.Errorf("sim: co-run made no progress")
	}
	cycles := float64(end) / 1e12 * 3e9
	return float64(instr) / cycles / float64(len(sys.Cores)-1), res, nil
}
