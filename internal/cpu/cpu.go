// Package cpu implements the interval-model core front-end: the stand-in
// for gem5's out-of-order cores that drives the memory system with
// realistic miss streams.
//
// Each core executes a stream of (compute gap, memory request) intervals.
// Compute advances core-local time at the configured non-memory IPC; a
// memory request occupies one of a bounded number of outstanding-miss
// slots (the MLP limit, standing in for MSHRs/ROB capacity). When all
// slots are busy the core stalls until the oldest miss returns. This
// reproduces the first-order behaviour that converts channel-busy time
// (migrations, refresh, table walks) into IPC loss, which is where all of
// the paper's slowdown comes from (Section IV-G).
package cpu

import (
	"fmt"

	"repro/internal/dram"
)

// Request is one memory operation produced by a stream.
type Request struct {
	// Row is the install (software-visible) row the line lives in.
	Row dram.Row
	// Write marks a writeback rather than a demand read.
	Write bool
	// GapInstr is the number of instructions executed since the previous
	// request.
	GapInstr int64
}

// Stream produces the core's memory requests in program order. Next
// returns ok=false when the stream is exhausted.
type Stream interface {
	Next() (Request, bool)
}

// FreqHz is every core's clock: 3 GHz (Table I).
const FreqHz = 3_000_000_000

// nonMemIPC is the IPC a core sustains on non-miss instructions: an
// 8-wide fetch core bound by dependencies.
const nonMemIPC = 2.0

// Config parameterizes one core.
type Config struct {
	// MLP is the number of outstanding misses the core overlaps (default
	// 4).
	MLP int
}

func (c *Config) fillDefaults() {
	if c.MLP == 0 {
		c.MLP = 4
	}
}

// Core is one interval-model core. Not safe for concurrent use.
type Core struct {
	cfg    Config
	id     int
	stream Stream

	// outstanding completion times, oldest first, held in a fixed ring of
	// MLP capacity: outHead is the physical index of the oldest entry and
	// outLen the occupancy. A ring rather than a shifted slice because the
	// oldest-miss pop runs once per request — the memmove was a fixed tax
	// on the issue hot path. The steady-state request path never allocates.
	outstanding []dram.PS
	outHead     int
	outLen      int
	// nextIssue is when the next request's compute gap has elapsed.
	nextIssue dram.PS
	// queued is the next request, already drawn from the stream.
	queued   Request
	hasQueue bool
	done     bool

	instrRetired int64
	lastComplete dram.PS
}

// New builds a core over a stream.
func New(id int, stream Stream, cfg Config) *Core {
	cfg.fillDefaults()
	if stream == nil {
		panic("cpu: nil stream")
	}
	return &Core{cfg: cfg, id: id, stream: stream,
		outstanding: make([]dram.PS, cfg.MLP)}
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Done reports whether the stream is exhausted and all misses returned.
func (c *Core) Done() bool { return c.done && c.outLen == 0 }

// InstrRetired returns the instructions completed so far.
func (c *Core) InstrRetired() int64 { return c.instrRetired }

// FinishTime returns the completion time of the last memory request.
func (c *Core) FinishTime() dram.PS { return c.lastComplete }

// IPC returns instructions per cycle given a measurement interval.
func (c *Core) IPC(elapsed dram.PS) float64 {
	if elapsed <= 0 {
		return 0
	}
	cycles := float64(elapsed) / 1e12 * FreqHz
	return float64(c.instrRetired) / cycles
}

// gapTime converts an instruction gap into core time.
func (c *Core) gapTime(instr int64) dram.PS {
	if instr <= 0 {
		return 0
	}
	sec := float64(instr) / nonMemIPC / FreqHz
	return dram.PS(sec * 1e12)
}

// NextIssueTime returns the time at which the core's next request is ready
// to be submitted, or ok=false if the core has finished. The simulator
// uses this to pick the globally earliest event.
func (c *Core) NextIssueTime() (dram.PS, bool) {
	if c.done {
		return 0, false
	}
	if !c.hasQueue {
		req, ok := c.stream.Next()
		if !ok {
			c.done = true
			return 0, false
		}
		c.queued = req
		c.hasQueue = true
		c.nextIssue += c.gapTime(req.GapInstr)
	}
	issue := c.nextIssue
	if c.outLen >= c.cfg.MLP {
		// All miss slots busy: stall until the oldest miss returns.
		if t := c.outstanding[c.outHead]; t > issue {
			issue = t
		}
	}
	return issue, true
}

// outSlot maps a logical position in the outstanding window (0 = oldest)
// to its ring slot.
func (c *Core) outSlot(i int) *dram.PS {
	j := c.outHead + i
	if j >= len(c.outstanding) {
		j -= len(c.outstanding)
	}
	return &c.outstanding[j]
}

// Issue submits the queued request through submit (typically
// memctrl.Controller.Submit) at time `at` and updates core state with the
// completion time.
func (c *Core) Issue(at dram.PS, submit func(row dram.Row, write bool, at dram.PS) dram.PS) {
	if !c.hasQueue {
		panic(fmt.Sprintf("cpu: core %d Issue without a queued request", c.id))
	}
	if c.outLen >= c.cfg.MLP {
		// Every miss slot is busy: the oldest miss, which NextIssueTime
		// waited for, frees its slot.
		c.outHead++
		if c.outHead == len(c.outstanding) {
			c.outHead = 0
		}
		c.outLen--
	}
	done := submit(c.queued.Row, c.queued.Write, at)
	// Insert keeping completions ordered; out-of-order completions are
	// rare (bank timing is mostly FIFO per this model) but possible
	// across banks, so the bubble loop almost never iterates.
	i := c.outLen
	c.outLen++
	for i > 0 && *c.outSlot(i - 1) > done {
		*c.outSlot(i) = *c.outSlot(i - 1)
		i--
	}
	*c.outSlot(i) = done
	c.instrRetired += c.queued.GapInstr + 1
	if done > c.lastComplete {
		c.lastComplete = done
	}
	c.nextIssue = at
	c.hasQueue = false
}
