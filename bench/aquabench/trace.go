package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/perf"
)

// span is one timed call into a layer. Spans of one op share Op, the id of
// the op's root span; Parent is 0 for a root. Times are nanoseconds since
// the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the grid pool's workers open spans in parallel.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu; spans[i].ID == i+1
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 opens a new op) and returns its id.
func (t *tracer) begin(parent int64, name string) int64 {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	op := id
	if parent != 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int64) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// do runs fn inside a span.
func (t *tracer) do(parent int64, name string, fn func()) time.Duration {
	id := t.begin(parent, name)
	fn()
	return t.end(id)
}

// durations returns the lengths of every span called name, in ms.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// micros are the internal/perf bodies behind the perf.* metrics, one per
// layer of the per-request pipeline plus the stream sources and the
// 4-core issue loop.
var micros = []struct {
	name string
	fn   func(*testing.B)
}{
	{"perf.dram_access_ns", perf.BenchAccess},
	{"perf.ctrl_submit_ns", perf.BenchSubmit},
	{"perf.mitigation_translate_ns", perf.BenchTranslate},
	{"perf.tracker_act_hot_ns", perf.BenchTrackerACTHot},
	{"perf.tracker_act_cold_ns", perf.BenchTrackerACTCold},
	{"perf.event_pop_ns", perf.BenchEventPop},
	{"perf.workload_stream_ns", perf.BenchGeneratorStream},
	{"perf.trace_replay_ns", perf.BenchTraceReplay},
	{"perf.issue_loop_4c_ns", perf.BenchIssueLoop4},
}
