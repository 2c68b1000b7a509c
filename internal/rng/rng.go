// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator. Every experiment in this
// repository is seeded explicitly so that results are bit-for-bit
// reproducible across runs and machines.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64 so that correlated integer seeds still produce well-mixed
// streams. The package deliberately avoids math/rand so that simulator
// results cannot drift with Go releases.
//
// # Concurrency
//
// A Rand is NOT safe for concurrent use: Uint64 mutates the four-word
// state without synchronization, and adding a lock would both slow the
// hot path and make draw order (hence results) depend on goroutine
// scheduling. The rule for concurrent code is therefore structural:
// every goroutine, simulation cell, core, or component owns its own
// Rand, constructed up front with New from a seed fixed by the
// experiment seed and the owner's identity (the simulator XORs the
// experiment seed with a workload name's hash, a core index or a
// per-scheme constant). Streams from
// distinct seeds, adjacent ones included, are statistically independent
// (tested in rng_test.go), so per-cell results never depend on how many
// cells run concurrently or in what order they finish — the property
// the parallel experiment engine relies on.
package rng

import "math"

// Rand is a deterministic xoshiro256** generator. The zero value is not
// valid; construct with New. A Rand must not be shared across
// goroutines; build one stream per owner with New.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances the 64-bit splitmix state and returns the next value.
// It is used only to expand a single seed into the xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given value. Distinct seeds yield
// statistically independent streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start in the all-zero state; splitmix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 bits from the stream.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns the next 32 bits from the stream.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling to remove modulo bias.
	max := ^uint64(0) - (^uint64(0)%n+1)%n
	for {
		v := r.Uint64()
		if v <= max {
			return v % n
		}
	}
}

// Uniform is a precomputed drawer of uniform values in [0, n) for hot
// call sites that draw from the same bound repeatedly: Uint64n recomputes
// its rejection threshold — two 64-bit divides — on every call, while a
// Uniform pays them once. Draw consumes exactly the same stream values
// and returns exactly the same results as Uint64n(n), so swapping one in
// never changes a deterministic run.
type Uniform struct {
	n    uint64
	mask uint64 // n-1 when n is a power of two
	pow2 bool
	max  uint64 // rejection bound for the general case
}

// NewUniform precomputes a Uniform for bound n. It panics if n == 0.
func NewUniform(n uint64) Uniform {
	if n == 0 {
		panic("rng: NewUniform called with zero n")
	}
	if n&(n-1) == 0 {
		return Uniform{n: n, mask: n - 1, pow2: true}
	}
	return Uniform{n: n, max: ^uint64(0) - (^uint64(0)%n+1)%n}
}

// Draw returns the next uniform value in [0, n) from r's stream.
func (u Uniform) Draw(r *Rand) uint64 {
	if u.pow2 {
		return r.Uint64() & u.mask
	}
	for {
		if v := r.Uint64(); v <= u.max {
			return v % u.n
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Zipf draws from a Zipf(s, v, imax) distribution over [0, imax] using
// rejection-inversion (Hörmann & Derflinger). It mirrors the semantics of
// math/rand.Zipf but runs on this deterministic generator.
type Zipf struct {
	r            *Rand
	imax         float64
	v            float64
	q            float64
	oneMinusQ    float64
	oneMinusQInv float64
	hxm          float64
	hx0MinusHxm  float64
	s            float64
}

// NewZipf returns a Zipf variate generator. Requires s > 1, v >= 1.
func NewZipf(r *Rand, s, v float64, imax uint64) *Zipf {
	if s <= 1 || v < 1 {
		panic("rng: NewZipf requires s > 1 and v >= 1")
	}
	z := &Zipf{
		r:    r,
		imax: float64(imax),
		v:    v,
		q:    s,
	}
	z.oneMinusQ = 1 - z.q
	z.oneMinusQInv = 1 / z.oneMinusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0MinusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1)))
	return z
}

func (z *Zipf) h(x float64) float64 {
	return z.expInv(math.Log(x+z.v)*z.oneMinusQ) * z.oneMinusQInv
}

func (z *Zipf) hinv(x float64) float64 {
	return math.Exp(math.Log(x*z.oneMinusQ)*z.oneMinusQInv) - z.v
}

func (z *Zipf) expInv(x float64) float64 { return math.Exp(x) }

// Uint64 draws the next Zipf variate.
func (z *Zipf) Uint64() uint64 {
	if z == nil {
		panic("rng: Uint64 on nil Zipf")
	}
	for {
		ur := z.hxm + z.r.Float64()*z.hx0MinusHxm
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k > z.imax {
			k = z.imax // guard against float rounding at the tail
		}
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}
