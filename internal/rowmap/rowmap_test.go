package rowmap

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/rng"
)

// TestMatchesGoMap drives random Set/Get/Delete/Clear sequences against a
// Go map. Keys come from a universe a few times the table size, so probe
// runs wrap past the last slot and deletes shift long chains back. After
// every operation each key in the universe must read back as the Go map
// says, and Range must visit exactly the live keys.
func TestMatchesGoMap(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		r := rng.New(uint64(trial))
		universe := 4 + r.Intn(60)
		var m Map
		if trial%2 == 0 {
			m = New(r.Intn(universe))
		}
		ref := map[dram.Row]int32{}
		for step := 0; step < 400; step++ {
			row := dram.Row(r.Intn(universe))
			switch op := r.Intn(100); {
			case op < 50:
				v := int32(r.Intn(1000)) - 500
				m.Set(row, v)
				ref[row] = v
			case op < 90:
				_, want := ref[row]
				if got := m.Delete(row); got != want {
					t.Fatalf("trial %d step %d: Delete(%d) = %v, want %v", trial, step, row, got, want)
				}
				delete(ref, row)
			case op < 97:
				if p := m.Ref(row); p != nil {
					*p++
					ref[row]++
				}
			case op < 98:
				m.Reserve(r.Intn(2 * universe))
			default:
				m.Clear()
				clear(ref)
			}
			if m.Len() != len(ref) {
				t.Fatalf("trial %d step %d: Len = %d, want %d", trial, step, m.Len(), len(ref))
			}
			for k := 0; k < universe; k++ {
				got, ok := m.Get(dram.Row(k))
				want, wantOK := ref[dram.Row(k)]
				if ok != wantOK || got != want {
					t.Fatalf("trial %d step %d: Get(%d) = %d,%v, want %d,%v", trial, step, k, got, ok, want, wantOK)
				}
			}
			seen := map[dram.Row]bool{}
			m.Range(func(row dram.Row, v int32) bool {
				if seen[row] {
					t.Fatalf("trial %d step %d: Range visited %d twice", trial, step, row)
				}
				seen[row] = true
				if want, ok := ref[row]; !ok || v != want {
					t.Fatalf("trial %d step %d: Range gave %d=%d, want %d (live %v)", trial, step, row, v, want, ok)
				}
				return true
			})
			if len(seen) != len(ref) {
				t.Fatalf("trial %d step %d: Range visited %d keys, want %d", trial, step, len(seen), len(ref))
			}
		}
	}
}

// TestRangeStops checks that Range ends as soon as fn returns false.
func TestRangeStops(t *testing.T) {
	m := New(10)
	for r := dram.Row(0); r < 10; r++ {
		m.Set(r, int32(r))
	}
	calls := 0
	m.Range(func(dram.Row, int32) bool { calls++; return calls < 3 })
	if calls != 3 {
		t.Fatalf("Range made %d calls after fn returned false at the third", calls)
	}
}

// TestInvalidRowPanics pins that InvalidRow, whose row+1 is the empty
// marker, is refused as a key.
func TestInvalidRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(InvalidRow) did not panic")
		}
	}()
	var m Map
	m.Set(dram.InvalidRow, 1)
}

// TestInvalidRowAbsent pins that lookups and deletes of InvalidRow on a
// non-empty map miss: its key is the empty marker, so a probe must not
// take the first empty slot it meets for a match.
func TestInvalidRowAbsent(t *testing.T) {
	m := New(4)
	for r := dram.Row(0); r < 4; r++ {
		m.Set(r, int32(r)+10)
	}
	if v, ok := m.Get(dram.InvalidRow); ok {
		t.Fatalf("Get(InvalidRow) = %d, true on a map without it", v)
	}
	if m.Ref(dram.InvalidRow) != nil {
		t.Fatal("Ref(InvalidRow) is non-nil on a map without it")
	}
	if m.Delete(dram.InvalidRow) {
		t.Fatal("Delete(InvalidRow) reported a deletion")
	}
	if m.Len() != 4 {
		t.Fatalf("Len = %d after Delete(InvalidRow), want 4", m.Len())
	}
	for r := dram.Row(0); r < 4; r++ {
		if v, ok := m.Get(r); !ok || v != int32(r)+10 {
			t.Fatalf("Get(%d) = %d, %v after Delete(InvalidRow)", r, v, ok)
		}
	}
}

// TestNoAllocAtCapacity pins the pre-sizing contract the tracker and the
// AQUA forward table rely on: a map made with New(n), or grown with
// Reserve(n), takes n entries, and any churn that keeps at most n live,
// without allocating.
func TestNoAllocAtCapacity(t *testing.T) {
	const n = 4096
	var m Map
	m.Set(7, 7)
	m.Reserve(n)
	if v, ok := m.Get(7); !ok || v != 7 {
		t.Fatalf("Reserve lost an entry: Get(7) = %d, %v", v, ok)
	}
	if len(m.slots) != len(New(n).slots) {
		t.Fatalf("Reserve(%d) made %d slots, New(%d) %d", n, len(m.slots), n, len(New(n).slots))
	}
	m = New(n)
	stride := dram.Row(2*1024*1024/n - 1) // spread keys over a 2M-row rank
	if avg := testing.AllocsPerRun(1, func() {
		m.Clear()
		for i := 0; i < n; i++ {
			m.Set(dram.Row(i)*stride, int32(i))
		}
	}); avg != 0 {
		t.Fatalf("filling to capacity allocates %.0f times", avg)
	}
	i := 0
	if avg := testing.AllocsPerRun(10000, func() {
		old := dram.Row(i%n) * stride
		m.Delete(old)
		m.Set(old+1, 1)
		if p := m.Ref(old + 1); p != nil {
			*p++
		}
		m.Delete(old + 1)
		m.Set(old, int32(i))
		i++
	}); avg != 0 {
		t.Fatalf("churn at capacity allocates %.2f allocs/op, want 0", avg)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d after churn, want %d", m.Len(), n)
	}
}
