// Package workload synthesizes the memory behaviour of the paper's
// evaluation workloads: the 18 SPEC CPU2017 rate workloads of Table II and
// the 16 four-way mixes.
//
// SPEC binaries and gem5 checkpoints are not available in this
// environment, so each workload is modelled by the two properties that
// determine everything the paper measures (substitution documented in
// DESIGN.md):
//
//   - MPKI, which sets the request rate per core, and
//   - the per-epoch hot-row histogram — how many rows receive 166+, 500+
//     and 1000+ activations per 64ms (Table II) — which determines how
//     many mitigations each scheme triggers and therefore the slowdown.
//
// A generated stream interleaves accesses to a fixed population of
// per-core hot rows (weighted so per-epoch activation counts land in the
// Table II tiers) with a Zipf-distributed background over a large row
// working set. Streams are deterministic given the workload name and seed.
package workload

import (
	"fmt"
	"math/bits"

	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/rng"
)

// Spec describes one workload's memory behaviour, taken from Table II.
type Spec struct {
	Name string
	// MPKI is misses per kilo-instruction (post-LLC).
	MPKI float64
	// Rows166, Rows500, Rows1K are the average number of rows with at
	// least 166/500/1000 activations per 64ms epoch (cumulative tiers,
	// whole 4-core system).
	Rows166, Rows500, Rows1K int
}

// SPEC17 returns the 18 rate workloads of Table II.
func SPEC17() []Spec {
	return []Spec{
		{"lbm", 20.9, 6794, 5437, 0},
		{"blender", 14.8, 6085, 3021, 572},
		{"gcc", 6.32, 4850, 1836, 111},
		{"mcf", 7.02, 4819, 835, 393},
		{"cactuBSSN", 2.57, 2515, 0, 0},
		{"roms", 4.37, 1150, 191, 11},
		{"xz", 0.41, 655, 0, 0},
		{"perlbench", 0.74, 0, 0, 0},
		{"bwaves", 0.21, 0, 0, 0},
		{"namd", 0.38, 0, 0, 0},
		{"povray", 0.01, 0, 0, 0},
		{"wrf", 0.02, 0, 0, 0},
		{"deepsjeng", 0.25, 0, 0, 0},
		{"imagick", 0.27, 0, 0, 0},
		{"leela", 0.03, 0, 0, 0},
		{"nab", 0.54, 0, 0, 0},
		{"exchange2", 0.01, 0, 0, 0},
		{"parest", 0.1, 0, 0, 0},
	}
}

// ByName returns the named SPEC workload spec.
func ByName(name string) (Spec, bool) {
	for _, s := range SPEC17() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Mixes returns the paper's 16 mixed workloads: each a deterministic draw
// of four SPEC workloads, one per core.
func Mixes() [][4]Spec {
	specs := SPEC17()
	r := rng.New(0x4d495853) // "MIXS"
	mixes := make([][4]Spec, 16)
	for i := range mixes {
		for c := 0; c < 4; c++ {
			mixes[i][c] = specs[r.Intn(len(specs))]
		}
	}
	return mixes
}

// MixName renders a short identifier for a mix.
func MixName(i int, mix [4]Spec) string {
	return fmt.Sprintf("mix%02d(%s,%s,%s,%s)", i+1,
		mix[0].Name, mix[1].Name, mix[2].Name, mix[3].Name)
}

// Region is the address space the generator may touch: the software-
// visible portion of a rank (mitigation engines reserve rows at the top of
// each bank).
type Region struct {
	Geom dram.Geometry
	// VisibleRowsPerBank caps the in-bank row index; 0 means the whole
	// bank.
	VisibleRowsPerBank int
}

// rows returns the usable rows per bank.
func (r Region) rows() int {
	if r.VisibleRowsPerBank > 0 {
		return r.VisibleRowsPerBank
	}
	return r.Geom.RowsPerBank
}

// VisibleRows returns the number of addressable rows.
func (r Region) VisibleRows() int { return r.rows() * r.Geom.Banks }

// rowIndex maps flat visible-row indices to physical rows without a
// divide: with n visible rows per bank, index i is row i mod n of bank
// i / n. A generator build maps every hot and background row it draws
// (64K per core), and a hardware divide per row was most of its time.
//
// The quotient is hi64(ceil(2^64/n) * i), exact whenever i and n are
// below 2^32 (Lemire, Kaser and Kurz, "Faster Remainder by Direct
// Computation", 2019), which a dram.Row's 32 bits guarantee. ceil(2^64/n)
// needs 65 bits when n is 1, so m holds ceil(2^64/n) - 1, which equals
// floor((2^64-1)/n), and the product is taken as m*i + i.
type rowIndex struct {
	n           uint64 // visible rows per bank
	m           uint64 // ceil(2^64/n) - 1
	rowsPerBank uint64
}

func (r Region) rowIndex() rowIndex {
	n := uint64(r.rows())
	return rowIndex{n: n, m: ^uint64(0) / n, rowsPerBank: uint64(r.Geom.RowsPerBank)}
}

// rowAt returns the row of visible-row index i, which must be below
// VisibleRows.
func (x rowIndex) rowAt(i uint64) dram.Row {
	bank := x.quotient(i)
	return dram.Row(bank*x.rowsPerBank + i - bank*x.n)
}

// quotient returns i / n for i below 2^32.
func (x rowIndex) quotient(i uint64) uint64 {
	hi, lo := bits.Mul64(x.m, i)
	_, carry := bits.Add64(lo, i, 0)
	return hi + carry
}

// backgroundRows sizes each core's cold working set.
const backgroundRows = 64 * 1024

// Params tunes stream generation.
type Params struct {
	// EpochLength is the activation-accounting window (default 64ms).
	EpochLength dram.PS
	// NominalIPC is the assumed per-core IPC used to convert MPKI into
	// per-epoch request budgets (default 1.0).
	NominalIPC float64
	// Cores is the number of cores sharing the Table II row counts
	// (default 4).
	Cores int
	// WriteFraction of requests are writebacks (default 0.3).
	WriteFraction float64
	// BackgroundBurst is the mean number of consecutive accesses to the
	// same background row (row-buffer locality; default 4). Hot-row
	// accesses are not bursty: interleaving across the hot set makes
	// nearly every hot access an activation, which is what defines them
	// as aggressors.
	BackgroundBurst int
}

func (p *Params) fillDefaults() {
	if p.EpochLength == 0 {
		p.EpochLength = 64 * dram.Millisecond
	}
	if p.NominalIPC == 0 {
		p.NominalIPC = 1.0
	}
	if p.Cores == 0 {
		p.Cores = 4
	}
	if p.WriteFraction == 0 {
		p.WriteFraction = 0.3
	}
	if p.BackgroundBurst == 0 {
		p.BackgroundBurst = 4
	}
}

// Generator produces per-core streams for one workload.
type Generator struct {
	spec   Spec
	params Params

	gapInstr   int64       // instructions between requests
	gapDraw    rng.Uniform // precomputed [0, gapInstr+1) drawer (hot path)
	hot        []dram.Row
	cum        []float64 // cum[i]: the activation targets of hot[0..i], summed
	pHot       float64   // probability a request hits the hot set
	background []dram.Row

	// pick/pickScale index the cumulative array for pickHot: pick[j] is
	// the lowest index whose cum span intersects bucket j of the total
	// weight range, so the inverse-CDF search degenerates to a scan of one
	// or two elements from there. Built once per generator; see
	// buildPickIndex.
	pick      []int32
	pickScale float64
}

// NewGenerator builds a deterministic generator for one core's share of
// the workload. coreIdx differentiates the hot-row placement of the four
// rate copies.
func NewGenerator(spec Spec, region Region, coreIdx int, seed uint64, params Params) *Generator {
	params.fillDefaults()
	if spec.MPKI <= 0 {
		panic(fmt.Sprintf("workload: %s has non-positive MPKI", spec.Name))
	}
	g := &Generator{spec: spec, params: params}
	g.gapInstr = int64(1000 / spec.MPKI)
	if g.gapInstr < 1 {
		g.gapInstr = 1
	}
	g.gapDraw = rng.NewUniform(uint64(g.gapInstr) + 1)

	r := rng.New(seed ^ hashName(spec.Name) ^ (uint64(coreIdx+1) * 0x9e3779b97f4a7c15))

	// Per-core share of the Table II tiers (counts are system-wide over
	// `Cores` copies). Tier targets are drawn uniformly inside the tier.
	share := func(n int) int { return n / params.Cores }
	n1k := share(spec.Rows1K)
	n500 := share(spec.Rows500) - n1k
	if n500 < 0 {
		n500 = 0
	}
	n166 := share(spec.Rows166) - n500 - n1k
	if n166 < 0 {
		n166 = 0
	}

	// A precomputed Uniform draws exactly what r.Intn(visible) would
	// without recomputing the rejection bound for each of the 64K
	// background rows; rows maps each draw to its row without a divide.
	visible := region.VisibleRows()
	draw := rng.NewUniform(uint64(visible))
	rows := region.rowIndex()
	pick := func() dram.Row { return rows.rowAt(draw.Draw(r)) }

	// Each hot row draws its per-epoch activation target, then its row, an
	// order every stream depends on; only the running sum of the targets
	// is kept, for pickHot.
	var hotActs float64
	g.hot = make([]dram.Row, 0, n1k+n500+n166)
	g.cum = make([]float64, 0, n1k+n500+n166)
	addTier := func(count int, lo, hi float64) {
		for i := 0; i < count; i++ {
			hotActs += lo + r.Float64()*(hi-lo)
			g.cum = append(g.cum, hotActs)
			g.hot = append(g.hot, pick())
		}
	}
	addTier(n1k, 1000, 2200)
	addTier(n500, 500, 1000)
	addTier(n166, 166, 500)
	g.buildPickIndex()

	// Requests this core issues per epoch at the nominal IPC.
	reqsPerEpoch := spec.MPKI / 1000 * params.NominalIPC * cpu.FreqHz *
		(float64(params.EpochLength) / 1e12)
	if reqsPerEpoch > 0 {
		// h is the desired fraction of *requests* that hit the hot set.
		// Background selections expand into bursts of mean length b, so
		// the per-decision hot probability p must satisfy
		// h = p / (p + (1-p)*b)  =>  p = h*b / (1 + h*(b-1)).
		h := hotActs / reqsPerEpoch
		b := float64(params.BackgroundBurst)
		if b < 1 {
			b = 1
		}
		g.pHot = h * b / (1 + h*(b-1))
	}
	if g.pHot > 0.98 {
		g.pHot = 0.98
	}

	// Cold background working set.
	bg := backgroundRows
	if bg > visible {
		bg = visible
	}
	g.background = make([]dram.Row, bg)
	for i := range g.background {
		g.background[i] = pick()
	}
	return g
}

// Spec returns the workload description.
func (g *Generator) Spec() Spec { return g.spec }

// HotRows returns the number of hot rows this core targets.
func (g *Generator) HotRows() int { return len(g.hot) }

// PHot returns the per-request probability of touching the hot set.
func (g *Generator) PHot() float64 { return g.pHot }

// Stream returns a fresh deterministic request stream of n requests.
func (g *Generator) Stream(n int64, seed uint64) cpu.Stream {
	s := &stream{
		g:      g,
		r:      rng.New(seed ^ hashName(g.spec.Name) ^ 0x53545245),
		remain: n,
	}
	// Constructing the Zipf sampler consumes no RNG draws, so building it
	// eagerly keeps the draw sequence identical to the old lazy path while
	// moving the allocation off the steady-state request path. The
	// background set is never empty: a region with no visible rows panics
	// in NewGenerator.
	s.zipf = rng.NewZipf(s.r, 1.2, 8, uint64(len(g.background)-1))
	return s
}

type stream struct {
	g      *Generator
	r      *rng.Rand
	zipf   *rng.Zipf
	remain int64

	// burst state: remaining accesses to burstRow.
	burstRow  dram.Row
	burstLeft int
}

// Next implements cpu.Stream.
func (s *stream) Next() (cpu.Request, bool) {
	if s.remain <= 0 {
		return cpu.Request{}, false
	}
	s.remain--
	g := s.g
	var row dram.Row
	switch {
	case s.burstLeft > 0:
		// Continue a background burst: consecutive accesses to the same
		// row are row-buffer hits in DRAM.
		s.burstLeft--
		row = s.burstRow
	case len(g.hot) > 0 && s.r.Float64() < g.pHot:
		row = g.hot[g.pickHot(s.r)]
	default:
		row = g.background[int(s.zipf.Uint64())]
		// Start a burst with geometric length (mean BackgroundBurst).
		if b := g.params.BackgroundBurst; b > 1 {
			s.burstRow = row
			s.burstLeft = 0
			for s.burstLeft < 4*b && s.r.Float64() < 1-1/float64(b) {
				s.burstLeft++
			}
		}
	}
	// Jitter the gap +/-50% around the MPKI-derived mean.
	gap := g.gapInstr/2 + int64(g.gapDraw.Draw(s.r))
	return cpu.Request{
		Row:      row,
		Write:    s.r.Float64() < g.params.WriteFraction,
		GapInstr: gap,
	}, true
}

// pickHot draws a hot-row index proportional to the weight deltas encoded
// in the cumulative array. The draw consumes exactly one Float64 and
// resolves to the smallest i with cum[i] >= x — sort.SearchFloat64s's
// contract — so it is bit-identical to the binary search it replaces, but
// runs in O(1) expected time via the bucket index (the inverse-CDF search
// was the single hottest frame of a full-window cell, ~25% of wall-clock
// at lbm's hot-set sizes).
func (g *Generator) pickHot(r *rng.Rand) int {
	return g.pickIndex(r.Float64() * g.cum[len(g.cum)-1])
}

// pickIndex returns the smallest i with g.cum[i] >= x, for any x in
// [0, cum[n-1]]. The answer index a satisfies cum[a-1] < x <= cum[a]
// (with cum[-1] taken as 0), and bucketOf is monotone and identical on
// the build and lookup sides, so a was registered in bucket bucketOf(x)
// during buildPickIndex and the bucket's lowest index is at most a. Every
// index from there up to a has cum < x, so the scan — typically a single
// step — stops exactly at a, and it needs no upper bound because
// x <= cum[n-1].
func (g *Generator) pickIndex(x float64) int {
	j := int(x * g.pickScale)
	if j >= len(g.pick) {
		j = len(g.pick) - 1
	}
	cum := g.cum
	i := int(g.pick[j])
	for cum[i] < x {
		i++
	}
	return i
}

// buildPickIndex precomputes the bucket index over g.cum: k (a power of
// two >= 2*len(cum)) equal-width buckets over [0, total], where bucket j
// records the lowest cumulative-array index whose weight span intersects
// it. Weights are bounded below (>= 166 activations/epoch), so
// occupancy is O(1) and the expected lookup scan length is ~1. Built once
// per generator — off the steady-state request path, which stays
// allocation-free.
func (g *Generator) buildPickIndex() {
	n := len(g.cum)
	if n == 0 {
		return
	}
	total := g.cum[n-1]
	if !(total > 0) {
		return
	}
	k := 1
	for k < 2*n {
		k <<= 1
	}
	g.pickScale = float64(k) / total
	g.pick = make([]int32, k)
	bucketOf := func(v float64) int {
		b := int(v * g.pickScale)
		if b >= k {
			b = k - 1
		}
		return b
	}
	// Index i's span (cum[i-1], cum[i]] covers buckets bucketOf(cum[i-1])
	// through bucketOf(cum[i]). Walking i upward, the first index to reach
	// a bucket is its lowest; every bucket up to bucketOf(total) = k-1 is
	// reached.
	next := 0 // the lowest bucket no index has reached yet
	for i := 0; i < n; i++ {
		for hi := bucketOf(g.cum[i]); next <= hi; next++ {
			g.pick[next] = int32(i)
		}
	}
}

// hashName hashes a workload name into a seed component (FNV-1a).
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
