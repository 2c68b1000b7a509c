package cat

import (
	"encoding/binary"
	"testing"

	"repro/internal/dram"
)

// eagerTable is the reference layout the paged Table replaced: one slot
// array per skew, allocated in full by its constructor, with a valid
// flag per slot. Its hash, two-choice placement, relocation victim and
// ErrFull are what the Table must reproduce, operation by operation.
type eagerTable struct {
	cfg         Config
	skews       [2][]eagerSlot // each skew: Sets*Ways slots
	count       int
	relocations int64
}

type eagerSlot struct {
	key   dram.Row
	value uint32
	valid bool
}

func newEager(cfg Config) *eagerTable {
	r := &eagerTable{cfg: cfg}
	for i := range r.skews {
		r.skews[i] = make([]eagerSlot, cfg.Sets*cfg.Ways)
	}
	return r
}

func (r *eagerTable) set(skew int, key dram.Row) []eagerSlot {
	z := uint64(key) + r.cfg.Seed + uint64(skew)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	base := int(z&uint64(r.cfg.Sets-1)) * r.cfg.Ways
	return r.skews[skew][base : base+r.cfg.Ways]
}

func (r *eagerTable) Lookup(key dram.Row) (uint32, bool) {
	for skew := 0; skew < 2; skew++ {
		for _, s := range r.set(skew, key) {
			if s.valid && s.key == key {
				return s.value, true
			}
		}
	}
	return 0, false
}

func eagerFree(set []eagerSlot) int {
	n := 0
	for _, s := range set {
		if !s.valid {
			n++
		}
	}
	return n
}

func (r *eagerTable) Insert(key dram.Row, value uint32) error {
	for skew := 0; skew < 2; skew++ {
		set := r.set(skew, key)
		for i := range set {
			if set[i].valid && set[i].key == key {
				set[i].value = value
				return nil
			}
		}
	}
	return r.place(key, value, r.cfg.MaxRelocations)
}

func (r *eagerTable) place(key dram.Row, value uint32, budget int) error {
	set0, set1 := r.set(0, key), r.set(1, key)
	f0, f1 := eagerFree(set0), eagerFree(set1)
	target := set0
	if f1 > f0 {
		target = set1
	}
	if f0 == 0 && f1 == 0 {
		if budget <= 0 {
			return ErrFull
		}
		victim := set0[0]
		set0[0] = eagerSlot{key: key, value: value, valid: true}
		r.relocations++
		r.count--
		if err := r.place(victim.key, victim.value, budget-1); err != nil {
			set0[0] = victim
			r.count++
			return ErrFull
		}
		r.count++
		return nil
	}
	for i := range target {
		if !target[i].valid {
			target[i] = eagerSlot{key: key, value: value, valid: true}
			r.count++
			return nil
		}
	}
	panic("unreachable")
}

func (r *eagerTable) Delete(key dram.Row) bool {
	for skew := 0; skew < 2; skew++ {
		set := r.set(skew, key)
		for i := range set {
			if set[i].valid && set[i].key == key {
				set[i] = eagerSlot{}
				r.count--
				return true
			}
		}
	}
	return false
}

// FuzzCATMatchesEager drives the paged Table and the eager reference with
// the same Insert/Delete/Lookup sequence on a small configuration (1-64
// sets, 1-8 ways, relocation budget 0-16) and requires, after every
// operation, the same Insert error, the same Lookup result for the
// operation's key, the same Len and the same Relocations; at the end
// every key the sequence touched must look up alike. Each operation is
// three bytes: the kind (insert twice as likely as delete or lookup) and
// a 16-bit key, which a narrow key range folds so that sets collide and
// small tables fill up into ErrFull.
func FuzzCATMatchesEager(f *testing.F) {
	// A table of two slots driven far past capacity.
	f.Add(uint8(0), uint8(0), uint8(2), uint64(1), uint16(64), fillOps(40, 7))
	// 8 sets x 2 ways without relocation, then with it, filled past
	// capacity and churned.
	f.Add(uint8(3), uint8(1), uint8(0), uint64(5), uint16(200), fillOps(120, 3))
	f.Add(uint8(3), uint8(1), uint8(16), uint64(5), uint16(200), fillOps(120, 3))
	// The largest configuration, lightly loaded, with every op kind.
	f.Add(uint8(6), uint8(7), uint8(8), uint64(9), uint16(0), fillOps(300, 5))
	f.Add(uint8(2), uint8(3), uint8(4), uint64(0), uint16(16), []byte{0, 1, 0, 2, 1, 0, 3, 1, 0})

	f.Fuzz(func(t *testing.T, setsLog, ways, budget uint8, seed uint64, keyRange uint16, ops []byte) {
		cfg := Config{
			Sets:           1 << (setsLog % 7),
			Ways:           1 + int(ways%8),
			Seed:           seed,
			MaxRelocations: int(budget % 17),
		}
		tab, ref := New(cfg), newEager(cfg)
		touched := make(map[dram.Row]bool)
		for i := 0; i+3 <= len(ops); i += 3 {
			key := dram.Row(binary.LittleEndian.Uint16(ops[i+1:]))
			if keyRange != 0 {
				key %= dram.Row(keyRange)
			}
			touched[key] = true
			switch ops[i] % 4 {
			case 0, 1:
				value := uint32(i)
				if got, want := tab.Insert(key, value), ref.Insert(key, value); got != want {
					t.Fatalf("op %d: Insert(%d) = %v, eager %v", i/3, key, got, want)
				}
			case 2:
				if got, want := tab.Delete(key), ref.Delete(key); got != want {
					t.Fatalf("op %d: Delete(%d) = %v, eager %v", i/3, key, got, want)
				}
			}
			gv, gok := tab.Lookup(key)
			wv, wok := ref.Lookup(key)
			if gv != wv || gok != wok {
				t.Fatalf("op %d: Lookup(%d) = %d,%v, eager %d,%v", i/3, key, gv, gok, wv, wok)
			}
			if tab.Len() != ref.count || tab.Relocations() != ref.relocations {
				t.Fatalf("op %d: Len %d, Relocations %d; eager %d, %d",
					i/3, tab.Len(), tab.Relocations(), ref.count, ref.relocations)
			}
		}
		for key := range touched {
			gv, gok := tab.Lookup(key)
			wv, wok := ref.Lookup(key)
			if gv != wv || gok != wok {
				t.Fatalf("end: Lookup(%d) = %d,%v, eager %d,%v", key, gv, gok, wv, wok)
			}
		}
	})
}

// fillOps encodes n operations over the keys 0, stride, 2*stride, ...:
// mostly inserts of fresh keys, every fourth a delete and every fifth a
// lookup of a key inserted earlier.
func fillOps(n, stride int) []byte {
	ops := make([]byte, 0, 3*n)
	for i := 0; i < n; i++ {
		kind, key := byte(0), i*stride
		switch {
		case i%4 == 3:
			kind, key = 2, (i/2)*stride
		case i%5 == 4:
			kind, key = 3, (i/3)*stride
		}
		ops = append(ops, kind, byte(key), byte(key>>8))
	}
	return ops
}
