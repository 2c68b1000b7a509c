// Package event is the run loop's scheduling structure: a binary min-heap
// of per-core next-issue events, ordered by (Time, Index) — the earliest
// issue first, the lowest core index on equal times. Any change to this
// order changes golden figure bytes.
//
// The heap holds core issues only. The memory controller's background
// work (refresh, epoch, drain) is not an event here: it is serviced inside
// memctrl.Controller.Submit -> Advance, and the run loop reads its next
// due time from Controller.NextEvent to bound same-core batches.
//
// The run loop works on the heap root directly: ReplaceIndexedMin is a
// single sift-down, and Horizon exposes the earliest event that is *not*
// the root, which is the bound the same-core issue-batching fast path
// needs.
//
// The zero value is an empty calendar. Push grows the heap's backing
// slice once; Reset keeps it, so steady-state push/pop never allocates.
// A Calendar is not safe for concurrent use — each simulated system owns
// its own, like every other layer of the simulator.
package event

// PS is simulated time in picoseconds. It aliases int64 exactly like
// dram.PS, so the two interchange freely without this package importing
// the DRAM model.
type PS = int64

// Event is one scheduled core issue: Index is the core number.
type Event struct {
	Time  PS
	Index int32
}

// Less is the calendar's total order: (Time, Index), ascending.
func Less(a, b Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Index < b.Index
}

// Calendar is the indexed min-heap. See the package comment.
type Calendar struct {
	heap []Event
}

// Reset empties the calendar, keeping the heap's backing slice.
func (c *Calendar) Reset() { c.heap = c.heap[:0] }

// Push schedules an event.
func (c *Calendar) Push(e Event) {
	c.heap = append(c.heap, e)
	i := len(c.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !Less(c.heap[i], c.heap[parent]) {
			break
		}
		c.heap[i], c.heap[parent] = c.heap[parent], c.heap[i]
		i = parent
	}
}

// MinIndexed returns the earliest event (the heap root) without removing
// it.
func (c *Calendar) MinIndexed() (Event, bool) {
	if len(c.heap) == 0 {
		return Event{}, false
	}
	return c.heap[0], true
}

// ReplaceIndexedMin reschedules the heap root to time t (index unchanged)
// and restores heap order. The root is the minimum, so any replacement
// needs only a sift-down.
func (c *Calendar) ReplaceIndexedMin(t PS) {
	c.heap[0].Time = t
	c.siftDown(0)
}

// DropIndexedMin removes the heap root (a finished core).
func (c *Calendar) DropIndexedMin() {
	last := len(c.heap) - 1
	c.heap[0] = c.heap[last]
	c.heap = c.heap[:last]
	if last > 0 {
		c.siftDown(0)
	}
}

// Horizon returns the earliest pending event other than the heap root:
// the minimum over the root's children, the heap's second-smallest entry.
// It is the cross-core bound for the run loop's same-core batching fast
// path — the root's owner may keep issuing while its successor events
// stay strictly below the horizon, because no other core issues first.
func (c *Calendar) Horizon() (Event, bool) {
	n := len(c.heap)
	if n < 2 {
		return Event{}, false
	}
	best := c.heap[1]
	if n > 2 && Less(c.heap[2], best) {
		best = c.heap[2]
	}
	return best, true
}

func (c *Calendar) siftDown(i int) {
	n := len(c.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && Less(c.heap[right], c.heap[left]) {
			smallest = right
		}
		if !Less(c.heap[smallest], c.heap[i]) {
			return
		}
		c.heap[i], c.heap[smallest] = c.heap[smallest], c.heap[i]
		i = smallest
	}
}
