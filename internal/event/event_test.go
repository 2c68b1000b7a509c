package event

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

func TestLessTotalOrder(t *testing.T) {
	cases := []struct {
		name string
		a, b Event
	}{
		{"time dominates", Event{Time: 1, Index: 9}, Event{Time: 2, Index: 0}},
		{"index breaks time tie", Event{Time: 5, Index: 0}, Event{Time: 5, Index: 1}},
	}
	for _, tc := range cases {
		if !Less(tc.a, tc.b) {
			t.Errorf("%s: Less(%v, %v) = false, want true", tc.name, tc.a, tc.b)
		}
		if Less(tc.b, tc.a) {
			t.Errorf("%s: Less(%v, %v) = true, want false", tc.name, tc.b, tc.a)
		}
	}
	e := Event{Time: 5, Index: 3}
	if Less(e, e) {
		t.Errorf("Less(%v, %v) = true; the order must be strict", e, e)
	}
}

func TestEqualTimestampCollision(t *testing.T) {
	// Events pushed at the same instant in any order must come off the
	// root in core-index order.
	var c Calendar
	for _, i := range []int32{2, 0, 3, 1} {
		c.Push(Event{Time: 100, Index: i})
	}
	for want := int32(0); want < 4; want++ {
		got, ok := c.MinIndexed()
		if !ok {
			t.Fatalf("root %d: calendar empty, want core %d@100", want, want)
		}
		if got != (Event{Time: 100, Index: want}) {
			t.Fatalf("root %d = %v, want core %d@100", want, got, want)
		}
		c.DropIndexedMin()
	}
	if _, ok := c.MinIndexed(); ok {
		t.Fatal("calendar not empty after draining")
	}
}

func TestReplaceAndDropIndexedMin(t *testing.T) {
	var c Calendar
	for i := int32(0); i < 4; i++ {
		c.Push(Event{Time: PS(10 + i), Index: i})
	}
	// Root is core 0 @10; pushing it to 25 must surface core 1 @11.
	c.ReplaceIndexedMin(25)
	if e, _ := c.MinIndexed(); e != (Event{Time: 11, Index: 1}) {
		t.Fatalf("root after replace = %v, want core1@11", e)
	}
	c.DropIndexedMin()
	if e, _ := c.MinIndexed(); e != (Event{Time: 12, Index: 2}) {
		t.Fatalf("root after drop = %v, want core2@12", e)
	}
	// Remaining: core2@12, core3@13, core0@25.
	for _, want := range []Event{{Time: 12, Index: 2}, {Time: 13, Index: 3}, {Time: 25, Index: 0}} {
		if e, ok := c.MinIndexed(); !ok || e != want {
			t.Fatalf("root = %v,%v, want %v", e, ok, want)
		}
		c.DropIndexedMin()
	}
}

func TestHorizonExcludesRoot(t *testing.T) {
	var c Calendar
	if _, ok := c.Horizon(); ok {
		t.Fatal("empty calendar has a horizon")
	}
	c.Push(Event{Time: 10, Index: 0})
	if _, ok := c.Horizon(); ok {
		t.Fatal("single-entry heap has a horizon; the root is excluded")
	}
	c.Push(Event{Time: 30, Index: 1})
	c.Push(Event{Time: 20, Index: 2})
	if hz, _ := c.Horizon(); hz != (Event{Time: 20, Index: 2}) {
		t.Fatalf("horizon = %v, want core2@20", hz)
	}
	// Rescheduling the root past every other event hands the horizon to
	// the next-earliest remaining entry, never to the root itself.
	c.ReplaceIndexedMin(40)
	if hz, _ := c.Horizon(); hz != (Event{Time: 30, Index: 1}) {
		t.Fatalf("horizon after replace = %v, want core1@30", hz)
	}
}

// TestCalendarMatchesReferenceModel drives random interleavings of
// pushes, root replacements and root drops against a sorted-slice
// reference model, checking after every step that the root is exactly the
// reference minimum and the horizon exactly the reference runner-up.
func TestCalendarMatchesReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		var c Calendar
		r := rng.New(seed * 0x9e3779b97f4a7c15)
		var ref []Event // pending events, maintained sorted
		insert := func(e Event) {
			i := sort.Search(len(ref), func(i int) bool { return !Less(ref[i], e) })
			ref = append(ref, Event{})
			copy(ref[i+1:], ref[i:])
			ref[i] = e
		}
		for step := 0; step < 4000; step++ {
			switch op := r.Intn(10); {
			case op < 5 || len(ref) == 0: // push
				e := Event{Time: PS(r.Intn(1 << 20)), Index: int32(r.Intn(64))}
				c.Push(e)
				insert(e)
			case op < 8: // reschedule the root, forward or back
				root := ref[0]
				tm := PS(r.Intn(1 << 20))
				c.ReplaceIndexedMin(tm)
				ref = ref[1:]
				insert(Event{Time: tm, Index: root.Index})
			default: // drop the root
				c.DropIndexedMin()
				ref = ref[1:]
			}
			got, ok := c.MinIndexed()
			if ok != (len(ref) > 0) || (ok && got != ref[0]) {
				t.Fatalf("seed %d step %d: root = %v,%v, reference %v", seed, step, got, ok, ref)
			}
			hz, ok := c.Horizon()
			if ok != (len(ref) > 1) || (ok && hz != ref[1]) {
				t.Fatalf("seed %d step %d: horizon = %v,%v, reference %v", seed, step, hz, ok, ref)
			}
		}
		// Drain: the remaining roots must come out in exact sorted order.
		for _, want := range ref {
			got, ok := c.MinIndexed()
			if !ok || got != want {
				t.Fatalf("seed %d drain: root = %v,%v, want %v", seed, got, ok, want)
			}
			c.DropIndexedMin()
		}
		if _, ok := c.MinIndexed(); ok {
			t.Fatalf("seed %d: calendar non-empty after drain", seed)
		}
	}
}

func TestResetKeepsCapacityEmptiesState(t *testing.T) {
	var c Calendar
	for i := int32(0); i < 32; i++ {
		c.Push(Event{Time: PS(i), Index: i})
	}
	c.Reset()
	if _, ok := c.MinIndexed(); ok {
		t.Fatal("MinIndexed returned an event after Reset")
	}
	// Steady-state reuse after Reset must not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		c.Reset()
		for i := int32(0); i < 32; i++ {
			c.Push(Event{Time: PS(i), Index: i})
		}
		for {
			if _, ok := c.MinIndexed(); !ok {
				break
			}
			c.DropIndexedMin()
		}
	})
	if allocs != 0 {
		t.Fatalf("push/drop cycle after Reset allocates %.1f/run, want 0", allocs)
	}
}
