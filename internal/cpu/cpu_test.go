package cpu

import (
	"testing"

	"repro/internal/dram"
)

// fixedStream yields n identical requests.
type fixedStream struct {
	n   int
	req Request
}

func (s *fixedStream) Next() (Request, bool) {
	if s.n == 0 {
		return Request{}, false
	}
	s.n--
	return s.req, true
}

// listStream yields a fixed request list.
type listStream struct {
	reqs []Request
}

func (s *listStream) Next() (Request, bool) {
	if len(s.reqs) == 0 {
		return Request{}, false
	}
	r := s.reqs[0]
	s.reqs = s.reqs[1:]
	return r, true
}

// constSubmit completes every request a fixed latency after issue.
func constSubmit(lat dram.PS) func(dram.Row, bool, dram.PS) dram.PS {
	return func(_ dram.Row, _ bool, at dram.PS) dram.PS { return at + lat }
}

func drain(c *Core, submit func(dram.Row, bool, dram.PS) dram.PS) {
	for {
		t, ok := c.NextIssueTime()
		if !ok {
			return
		}
		c.Issue(t, submit)
	}
}

func TestComputeGapPacesIssues(t *testing.T) {
	// 3GHz, IPC 2: 600 instructions take 100ns.
	c := New(0, &fixedStream{n: 3, req: Request{GapInstr: 600}}, Config{})
	var issues []dram.PS
	drain(c, func(_ dram.Row, _ bool, at dram.PS) dram.PS {
		issues = append(issues, at)
		return at
	})
	if len(issues) != 3 {
		t.Fatalf("issued %d", len(issues))
	}
	want := dram.PS(100 * dram.Nanosecond)
	if issues[0] != want || issues[1] != 2*want || issues[2] != 3*want {
		t.Fatalf("issue times %v, want multiples of %d", issues, want)
	}
}

func TestMLPStall(t *testing.T) {
	// MLP 2, zero compute gap, 1us memory latency: issues 3 and beyond
	// must wait for earlier completions.
	c := New(0, &fixedStream{n: 4, req: Request{GapInstr: 0}}, Config{MLP: 2})
	var issues []dram.PS
	lat := dram.PS(dram.Microsecond)
	drain(c, func(_ dram.Row, _ bool, at dram.PS) dram.PS {
		issues = append(issues, at)
		return at + lat
	})
	if issues[0] != 0 || issues[1] != 0 {
		t.Fatalf("first two issues = %v, want both at 0", issues[:2])
	}
	if issues[2] != lat {
		t.Fatalf("third issue = %d, want %d (after first completion)", issues[2], lat)
	}
	if issues[3] != lat {
		t.Fatalf("fourth issue = %d, want %d", issues[3], lat)
	}
}

func TestInstrRetired(t *testing.T) {
	c := New(0, &fixedStream{n: 5, req: Request{GapInstr: 999}}, Config{})
	drain(c, constSubmit(100))
	if got := c.InstrRetired(); got != 5*1000 {
		t.Fatalf("instr = %d", got)
	}
}

func TestIPCAccounting(t *testing.T) {
	c := New(0, &fixedStream{n: 10, req: Request{GapInstr: 2999}}, Config{})
	drain(c, constSubmit(10*dram.Nanosecond))
	elapsed := c.FinishTime()
	ipc := c.IPC(elapsed)
	if ipc <= 0 || ipc > 8 {
		t.Fatalf("ipc = %g", ipc)
	}
	if c.IPC(0) != 0 {
		t.Fatal("zero-elapsed IPC must be 0")
	}
}

func TestDoneSemantics(t *testing.T) {
	c := New(0, &fixedStream{n: 1, req: Request{GapInstr: 1}}, Config{})
	if c.Done() {
		t.Fatal("done before start")
	}
	drain(c, constSubmit(100))
	if _, ok := c.NextIssueTime(); ok {
		t.Fatal("stream should be exhausted")
	}
}

func TestWriteFlagPropagated(t *testing.T) {
	c := New(0, &listStream{reqs: []Request{
		{Row: 7, Write: true, GapInstr: 1},
		{Row: 8, Write: false, GapInstr: 1},
	}}, Config{})
	var writes []bool
	drain(c, func(_ dram.Row, w bool, at dram.PS) dram.PS {
		writes = append(writes, w)
		return at
	})
	if len(writes) != 2 || !writes[0] || writes[1] {
		t.Fatalf("writes = %v", writes)
	}
}

func TestIssueWithoutQueuePanics(t *testing.T) {
	c := New(0, &fixedStream{n: 0}, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Issue(0, constSubmit(1))
}

func TestNilStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0, nil, Config{})
}

func TestSlowMemoryLowersIPC(t *testing.T) {
	mk := func(lat dram.PS) float64 {
		c := New(0, &fixedStream{n: 100, req: Request{GapInstr: 100}}, Config{MLP: 1})
		drain(c, constSubmit(lat))
		return c.IPC(c.FinishTime())
	}
	fast := mk(10 * dram.Nanosecond)
	slow := mk(1000 * dram.Nanosecond)
	if slow >= fast {
		t.Fatalf("slow memory did not lower IPC: %g vs %g", slow, fast)
	}
}

func TestID(t *testing.T) {
	if New(3, &fixedStream{n: 0}, Config{}).ID() != 3 {
		t.Fatal("id")
	}
}
