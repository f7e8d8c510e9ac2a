// Package rng provides a deterministic, splittable random number generator
// and the probability distributions used throughout the noisy-evaluation
// study: uniform, log-uniform, normal, Laplace, Dirichlet, Zipf, categorical,
// and sampling with/without replacement.
//
// Every stochastic component in this repository takes an explicit *RNG.
// Experiments derive independent streams with Split so that results are
// reproducible bit-for-bit regardless of goroutine scheduling.
package rng

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"strconv"
)

// RNG is a deterministic random number generator. It wraps a PCG source from
// math/rand/v2 and supports deriving independent child streams via Split.
// An RNG is not safe for concurrent use; Split off one stream per goroutine.
//
// Float64, IntN, Uint64 and the permutations call src directly, where its
// step inlines, and reproduce rand/v2's derivations of the same words
// (TestDirectDrawsMatchRandV2); r serves only NormFloat64 and ExpFloat64.
type RNG struct {
	// src and r are embedded by value — one RNG is one allocation, which
	// matters when the block scheduler creates two streams per trial. r's
	// Source always points at the sibling src field, so an RNG must never be
	// copied by value (use pointers, as every API here does).
	src  rand.PCG
	r    rand.Rand
	seed uint64

	// path is the split path, the "/"-joined labels from the root ("" for a
	// root stream). It starts on pathArr and every split rewrites it in the
	// child's own buffer, so a split whose path fits allocates nothing and a
	// longer one grows the buffer once per stream. The longest paths measured
	// are 36 bytes in federated training, 48 in bench's tune_heavy trials and
	// 87 in Figure 15's trials, whose cell labels carry the noise setting;
	// 88 bytes keep an RNG in the 160-byte size class.
	path    []byte
	pathArr [88]byte

	// prefixHash caches the label-independent FNV prefix of deriveSeed
	// (hex seed, '/', path, '/'), or is 0 until the first split after New
	// or a reseed: it changes only then, while hot loops derive many sibling
	// labels from one parent. A prefix that hashes to 0 is recomputed on
	// every split, which costs time and changes no seed.
	prefixHash FNV64a
}

// New returns an RNG seeded with seed. The second PCG word is a fixed
// golden-ratio constant so that nearby seeds still give decorrelated streams.
func New(seed uint64) *RNG {
	g := &RNG{seed: seed}
	g.src.Seed(seed, seed^0x9e3779b97f4a7c15)
	g.r = *rand.New(&g.src)
	g.path = g.pathArr[:0]
	return g
}

// Split derives an independent child stream labelled by label. The child's
// seed is a hash of the parent seed, the parent's path, and the label, so the
// same (seed, path) always yields the same stream and different labels yield
// decorrelated streams. Split does not consume randomness from the parent.
func (g *RNG) Split(label string) *RNG {
	child := New(0)
	g.SplitInto(child, label)
	return child
}

// Splitf is Split with a formatted label.
func (g *RNG) Splitf(format string, args ...any) *RNG {
	return g.Split(fmt.Sprintf(format, args...))
}

// FNV64a is the incremental FNV-1a state this package derives split seeds
// with, exported so other hot paths (the bank oracle's evaluation-stream
// seeds) share one canonical implementation — and fold bytes without
// allocating a hash.Hash. A child seed is the FNV-1a hash of the bytes
// fmt.Sprintf("%016x/%s/%s", seed, path, label) writes;
// TestSplitSeedIsFNVOfPath holds deriveSeed to hash/fnv over them.
type FNV64a uint64

// NewFNV64a returns the FNV-1a offset basis.
func NewFNV64a() FNV64a { return 14695981039346656037 }

// Byte folds one byte.
func (h FNV64a) Byte(b byte) FNV64a { return (h ^ FNV64a(b)) * 1099511628211 }

// Bytes folds bs.
func (h FNV64a) Bytes(bs []byte) FNV64a {
	for _, b := range bs {
		h = h.Byte(b)
	}
	return h
}

// String folds s's bytes.
func (h FNV64a) String(s string) FNV64a {
	for i := 0; i < len(s); i++ {
		h = h.Byte(s[i])
	}
	return h
}

// Uint64Decimal folds v's base-10 digits — the bytes fmt's %d would write.
func (h FNV64a) Uint64Decimal(v uint64) FNV64a {
	var buf [20]byte
	return h.Bytes(strconv.AppendUint(buf[:0], v, 10))
}

// Sum returns the current hash value.
func (h FNV64a) Sum() uint64 { return uint64(h) }

// deriveSeed returns the seed of g's child labelled label.
func (g *RNG) deriveSeed(label []byte) uint64 {
	if g.prefixHash == 0 {
		const hexDigits = "0123456789abcdef"
		h := NewFNV64a()
		for shift := 60; shift >= 0; shift -= 4 {
			h = h.Byte(hexDigits[(g.seed>>uint(shift))&0xf])
		}
		g.prefixHash = h.Byte('/').Bytes(g.path).Byte('/')
	}
	return g.prefixHash.Bytes(label).Sum()
}

// reseed points g at the stream New(seed) would produce, reusing g's
// allocated source. rand/v2's Rand holds no state beyond its Source, so the
// resulting stream is byte-identical to a freshly constructed RNG.
func (g *RNG) reseed(seed uint64) {
	g.seed = seed
	g.prefixHash = 0
	g.src.Seed(seed, seed^0x9e3779b97f4a7c15)
}

// Reseed reinitializes g in place to the exact stream New(seed) returns
// (root path, identical subsequent Split derivations), reusing g's
// allocations. The hot-path form of "make a fresh RNG per evaluation" used
// by the bank oracle: one RNG per trial, reseeded per evaluation call.
func (g *RNG) Reseed(seed uint64) {
	g.reseed(seed)
	g.path = g.path[:0]
}

// The in-place split helpers below derive the stream Split would, without
// any heap allocation once dst's path buffer holds the path: the federated
// hot loop derives two child streams per round ("round-N" and
// "client-K-round-N"), and the fmt.Sprintf + child-RNG allocations of Splitf
// dominated its allocation profile. TestSplitIntoMatchesSplitf pins stream
// equality.

// childPath starts a child's path in dst's buffer: g's path and '/'. The
// split helpers append the label and hand the result to splitTo.
func (g *RNG) childPath(dst *RNG) []byte {
	return append(append(dst.path[:0], g.path...), '/')
}

// splitTo reseeds dst to g's child whose path is p, which childPath started.
func (g *RNG) splitTo(dst *RNG, p []byte) {
	dst.path = p
	dst.reseed(g.deriveSeed(p[len(g.path)+1:]))
}

// SplitInto reseeds dst in place to the exact stream g.Split(label) returns
// (same seed, same split-path, same subsequent Split derivations). dst must
// have been created by New and must not be g itself; its previous stream is
// abandoned.
func (g *RNG) SplitInto(dst *RNG, label string) {
	g.splitTo(dst, append(g.childPath(dst), label...))
}

// SplitIntInto is SplitInto with label prefix+itoa(n): it reseeds dst to the
// stream g.Splitf(prefix+"%d", n) returns, without the fmt allocations.
func (g *RNG) SplitIntInto(dst *RNG, prefix string, n int) {
	g.splitTo(dst, strconv.AppendInt(append(g.childPath(dst), prefix...), int64(n), 10))
}

// SplitInt2Into is SplitInto with label p1+itoa(a)+p2+itoa(b): it reseeds dst
// to the stream g.Splitf(p1+"%d"+p2+"%d", a, b) returns.
func (g *RNG) SplitInt2Into(dst *RNG, p1 string, a int, p2 string, b int) {
	p := strconv.AppendInt(append(g.childPath(dst), p1...), int64(a), 10)
	g.splitTo(dst, strconv.AppendInt(append(p, p2...), int64(b), 10))
}

// Seed returns the seed this stream was created with.
func (g *RNG) Seed() uint64 { return g.seed }

// Path returns the split-path of this stream ("" for a root stream).
func (g *RNG) Path() string { return string(g.path) }

// Float64 returns a uniform sample in [0, 1): rand/v2's Float64, the top 53
// bits of one word over 2^53.
func (g *RNG) Float64() float64 { return float64(g.src.Uint64()<<11>>11) / (1 << 53) }

// IntN returns a uniform sample in [0, n). It panics if n <= 0.
func (g *RNG) IntN(n int) int {
	if n <= 0 {
		panic("invalid argument to IntN")
	}
	return int(g.uint64n(uint64(n)))
}

// uint64n is rand/v2's uint64n on a 64-bit machine: a mask for a power of
// two, otherwise Lemire's multiply with the rejection of lo < -n%n, checked
// only when lo < n. rand/v2 documents its 32-bit path as giving the same
// sequence, so this one path serves every architecture.
func (g *RNG) uint64n(n uint64) uint64 {
	if n&(n-1) == 0 {
		return g.src.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(g.src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(g.src.Uint64(), n)
		}
	}
	return hi
}

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.src.Uint64() }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.Float64()
}

// LogUniform returns exp of a uniform sample in [log(lo), log(hi)).
// Both bounds must be positive.
func (g *RNG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi <= 0 {
		panic(fmt.Sprintf("rng: LogUniform bounds must be positive, got [%g, %g]", lo, hi))
	}
	return math.Exp(g.Uniform(math.Log(lo), math.Log(hi)))
}

// Normal returns a sample from N(mean, stddev^2).
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Laplace returns a sample from the Laplace distribution with the given mean
// and scale b (density 1/(2b) exp(-|x-mean|/b)). Scale must be positive;
// a scale of +Inf returns ±Inf (used to model a fully exhausted privacy
// budget) and a scale of 0 returns mean exactly.
func (g *RNG) Laplace(mean, scale float64) float64 {
	if scale < 0 {
		panic(fmt.Sprintf("rng: Laplace scale must be non-negative, got %g", scale))
	}
	if scale == 0 {
		return mean
	}
	// Inverse CDF: u in (-1/2, 1/2), x = mean - b*sign(u)*ln(1-2|u|).
	u := g.Float64() - 0.5
	return mean - scale*sign(u)*math.Log1p(-2*math.Abs(u))
}

// Exponential returns a sample from Exp(rate) with the given rate λ > 0.
func (g *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic(fmt.Sprintf("rng: Exponential rate must be positive, got %g", rate))
	}
	return g.r.ExpFloat64() / rate
}

// Gamma returns a sample from Gamma(shape, 1) using Marsaglia-Tsang for
// shape >= 1 and the boost for shape < 1.
func (g *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic(fmt.Sprintf("rng: Gamma shape must be positive, got %g", shape))
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a).
		return g.Gamma(shape+1) * math.Pow(g.Float64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := g.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet fills out with a sample from Dirichlet(alpha, ..., alpha) of the
// given dimension. Used to synthesize non-iid client label distributions
// (Hsu et al., 2019) with alpha = 0.1 for the CIFAR10-like population.
func (g *RNG) Dirichlet(alpha float64, dim int) []float64 {
	if dim <= 0 {
		panic(fmt.Sprintf("rng: Dirichlet dimension must be positive, got %d", dim))
	}
	out := make([]float64, dim)
	sum := 0.0
	for i := range out {
		out[i] = g.Gamma(alpha)
		sum += out[i]
	}
	if sum == 0 {
		// Extremely small alpha can underflow every component; fall back to
		// a one-hot draw, which is the alpha->0 limit of the Dirichlet.
		out[g.IntN(dim)] = 1
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Zipf returns integer samples in [0, n) with probability proportional to
// 1/(i+1)^s. It precomputes nothing; for repeated sampling use NewZipf.
func (g *RNG) Zipf(s float64, n int) int {
	return NewZipf(s, n).Sample(g)
}

// Zipf is a reusable sampler over [0, n) with P(i) ∝ 1/(i+1)^s, used to
// synthesize token frequencies for the next-token-prediction populations.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler with exponent s over n ranks.
func NewZipf(s float64, n int) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Zipf needs n > 0, got %d", n))
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws one rank.
func (z *Zipf) Sample(g *RNG) int {
	u := g.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Categorical draws an index with probability proportional to weights[i].
// Weights must be non-negative with a positive sum.
func (g *RNG) Categorical(weights []float64) int {
	sum := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("rng: Categorical weight must be non-negative, got %g", w))
		}
		sum += w
	}
	if sum <= 0 {
		panic("rng: Categorical weights sum to zero")
	}
	u := g.Float64() * sum
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1 // float round-off
}

// Perm returns a random permutation of [0, n): rand/v2's Perm.
func (g *RNG) Perm(n int) []int {
	p := make([]int, n)
	g.PermInto(p)
	return p
}

// PermInto fills dst with a random permutation of [0, len(dst)). It consumes
// exactly the randomness Perm(len(dst)) consumes and produces the same
// permutation, without allocating (the hot-path form used by local training's
// per-client example shuffles).
func (g *RNG) PermInto(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := int(g.uint64n(uint64(i + 1)))
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// Shuffle shuffles the first n indices using swap, in rand/v2's
// Fisher–Yates order. It panics if n < 0.
func (g *RNG) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("invalid argument to Shuffle")
	}
	for i := n - 1; i > 0; i-- {
		swap(i, int(g.uint64n(uint64(i+1))))
	}
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). It panics if k > n or k < 0. The result is in random order.
// This models sampling the client subset S ⊂ [Nval] in Eq. 2 of the paper.
func (g *RNG) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || k > n {
		panic(fmt.Sprintf("rng: SampleWithoutReplacement k=%d out of range [0, %d]", k, n))
	}
	if k == 0 {
		return nil
	}
	// Partial Fisher-Yates over an index slice; O(n) memory, O(k) swaps.
	return g.SampleWithoutReplacementInto(n, k, make([]int, n))
}

// SampleWithoutReplacementInto is SampleWithoutReplacement with caller-owned
// scratch: buf must have length >= n; the result occupies buf[:k]. It draws
// from the stream identically to SampleWithoutReplacement, so the two forms
// are interchangeable without perturbing reproducibility.
func (g *RNG) SampleWithoutReplacementInto(n, k int, buf []int) []int {
	if k < 0 || k > n {
		panic(fmt.Sprintf("rng: SampleWithoutReplacementInto k=%d out of range [0, %d]", k, n))
	}
	if k == 0 {
		return buf[:0]
	}
	idx := buf[:n]
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + g.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.Float64() < p }

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}
