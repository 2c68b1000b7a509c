package rng

import (
	"math"
	"sync"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwoFastPath(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(64); v >= 64 {
			t.Fatalf("Uint64n(64) = %d", v)
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d has %d draws, want ~%d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(13)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / 100000; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestZipfBounds(t *testing.T) {
	r := New(19)
	const imax = 999
	z := NewZipf(r, 1.3, 4, imax)
	for i := 0; i < 200000; i++ {
		if v := z.Uint64(); v > imax {
			t.Fatalf("Zipf drew %d > imax %d", v, imax)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(23)
	z := NewZipf(r, 1.5, 1, 10000)
	counts := make(map[uint64]int)
	for i := 0; i < 200000; i++ {
		counts[z.Uint64()]++
	}
	if counts[0] <= counts[100] {
		t.Errorf("Zipf not skewed: P(0)=%d <= P(100)=%d", counts[0], counts[100])
	}
	if counts[0] == 0 {
		t.Error("Zipf never drew 0")
	}
}

func TestZipfPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(s=1) did not panic")
		}
	}()
	NewZipf(New(1), 1.0, 1, 10)
}

// independent checks that two streams look unrelated: no identical draw
// at the same index, and the XOR of paired draws has balanced bits (a
// correlated pair would bias the XOR toward zero or toward the shared
// pattern).
func independent(t *testing.T, label string, a, b *Rand) {
	t.Helper()
	const draws = 1 << 14
	var ones int
	for i := 0; i < draws; i++ {
		x, y := a.Uint64(), b.Uint64()
		if x == y {
			t.Fatalf("%s: identical draw at index %d", label, i)
		}
		for v := x ^ y; v != 0; v &= v - 1 {
			ones++
		}
	}
	mean := float64(ones) / float64(draws)
	if math.Abs(mean-32) > 0.5 {
		t.Errorf("%s: XOR bit density %.3f bits/draw, want ~32 (correlated streams)", label, mean)
	}
}

func TestDerivedStreamsIndependent(t *testing.T) {
	const seed = 0x41515541
	independent(t, "adjacent seeds", New(seed), New(seed+1))
}

func TestConcurrentDerivedStreamsMatchSerial(t *testing.T) {
	// The parallel engine's contract: a goroutine drawing from its own
	// stream produces the same sequence it would serially, no
	// matter how many sibling streams run beside it.
	const seed, workers, draws = 99, 8, 4096
	serial := make([][]uint64, workers)
	for w := range serial {
		r := New(seed + uint64(w))
		for i := 0; i < draws; i++ {
			serial[w] = append(serial[w], r.Uint64())
		}
	}
	concurrent := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := New(seed + uint64(w))
			for i := 0; i < draws; i++ {
				concurrent[w] = append(concurrent[w], r.Uint64())
			}
		}(w)
	}
	wg.Wait()
	for w := range serial {
		for i := range serial[w] {
			if serial[w][i] != concurrent[w][i] {
				t.Fatalf("stream %d diverged at draw %d under concurrency", w, i)
			}
		}
	}
}

func TestUint32(t *testing.T) {
	r := New(29)
	var or uint32
	for i := 0; i < 64; i++ {
		or |= r.Uint32()
	}
	if or == 0 {
		t.Fatal("Uint32 always returned 0")
	}
}
