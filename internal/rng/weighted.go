package rng

import (
	"fmt"
	"math"
)

// WeightedSampler draws weighted samples without replacement from one weight
// vector, many times: Reset once per vector, Sample once per draw. This
// implements the biased client selection used to model systems heterogeneity
// (weight (a_k + δ)^b in §3.2 of the paper) by Efraimidis-Spirakis keys —
// item i gets key u_i^(1/w_i), the k largest keys win — but computes only the
// keys that can be among the k largest (DESIGN.md §18). The subsets, their
// order and the randomness consumed are those of computing every key. The
// zero value is ready to use; buffers grow on first use and are reused, so
// steady-state draws allocate nothing.
type WeightedSampler struct {
	w      []float64 // the weights, aliased until the next Reset
	inv    []float64 // 1/w[i], the key's exponent (aliased, or own.Inv)
	margin []float64 // half-width of the bracket around log2 key_i (aliased, or own.Margin)
	own    Prepared  // Reset's inverses and margins
	u      []float64 // one uniform per positive weight
	zero   []int     // the items of zero weight
	keys   []float64 // upper brackets, then keys, of the current draw
	lo     []float64 // lower brackets of the current draw
	idx    []int     // selection buffer; the result is idx[:k]
	topLo  []float64 // the k largest lower brackets, descending
	topIdx []int     // and their items
	normal []int     // surrogates' scratch: the normal items by ascending lower bracket
	lanes  bool      // useLanes, false only where a test holds the kernel to the Go loop
}

// Prepared is a weight vector with what a WeightedSampler derives from it:
// wherever W[i] > 0, Inv[i] and Margin[i] are PrepareWeight(W[i]); at a zero
// weight they may hold anything. A caller that meets the same weights again
// and again (the bank oracle: one weight per client and wrong-count) prepares
// each once and hands the sampler the row through ResetPrepared.
type Prepared struct {
	W, Inv, Margin []float64
}

// PrepareWeight returns what the sampler derives from a positive weight w:
// the key's exponent 1/w and the half-width of the bracket around log2 of
// the key. min keeps the margin finite when 1/w overflows: the bracket is
// then [-Inf, -Inf], which is where that key (0) lies.
func PrepareWeight(w float64) (inv, margin float64) {
	inv = 1 / w
	return inv, min(inv, 1e300)*(log2TableErr+bracketSlack) + bracketFloor
}

// A key's logarithm, inv·log2(u), is bracketed without a transcendental
// call: log2(u) is u's exponent plus log2 of its mantissa, read from a table
// indexed by the mantissa's top log2Bits bits that holds log2 at each
// bucket's midpoint. DESIGN.md §18 derives the constants.
const (
	log2Bits = 11
	// log2TableErr bounds the table's error: half a bucket (2^-12) times the
	// steepest slope of log2 on [1, 2) (1/ln 2).
	log2TableErr = 3.6e-4
	// bracketSlack, beside log2TableErr, scales with inv: it covers the
	// rounding of the bracket arithmetic and the share of math.Pow's relative
	// error that grows with its exponent (both below inv·1e-12 in log2
	// units). bracketFloor covers the share that does not (below 1e-12).
	bracketSlack = 1e-6
	bracketFloor = 1e-9
	// minCertifiedLog2 is the lowest k-th lower bracket that is trusted:
	// Pow's error is bounded only for normal results, and near the
	// subnormals distinct keys collapse into ties at 0.
	minCertifiedLog2 = -1000
	// zeroCutLog2 is the underflow cut: an upper bracket below it proves
	// that Pow returns exactly 0 (DESIGN.md §18), so such keys tie at 0.
	zeroCutLog2 = -1080
)

var log2Mid = func() (t [1 << log2Bits]float64) {
	for b := range t {
		t[b] = math.Log2(1 + (float64(b)+0.5)/(1<<log2Bits))
	}
	return t
}()

// Reset points the sampler at weights, which must be non-negative with a
// positive sum and must not change until the next Reset.
func (s *WeightedSampler) Reset(weights []float64) {
	n := len(weights)
	s.own.Inv, s.own.Margin = grow(s.own.Inv, n), grow(s.own.Margin, n)
	for i, w := range weights {
		if w > 0 {
			s.own.Inv[i], s.own.Margin[i] = PrepareWeight(w)
		}
	}
	s.ResetPrepared(Prepared{W: weights, Inv: s.own.Inv, Margin: s.own.Margin})
}

// ResetPrepared is Reset on p.W with its inverses and margins already
// computed; the sampler reads all three until the next Reset, and none may
// change before then.
func (s *WeightedSampler) ResetPrepared(p Prepared) {
	n := len(p.W)
	if len(p.Inv) != n || len(p.Margin) != n {
		panic(fmt.Sprintf("rng: prepared weights of %d items with %d inverses and %d margins", n, len(p.Inv), len(p.Margin)))
	}
	s.w, s.inv, s.margin = p.W, p.Inv, p.Margin
	s.u, s.keys, s.lo, s.idx = grow(s.u, n), grow(s.keys, n), grow(s.lo, n), grow(s.idx, n)
	s.zero, s.normal, s.lanes = s.zero[:0], grow(s.normal, n), useLanes
	positive := false
	for i, w := range p.W {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("rng: weight[%d] must be non-negative, got %g", i, w))
		}
		if w == 0 {
			s.zero = append(s.zero, i)
		}
		positive = positive || w > 0
	}
	if !positive {
		panic("rng: all weights are zero")
	}
}

// Sample returns k distinct indices drawn without replacement with
// probability at each step proportional to the weight among the remaining
// items; zero-weight items come last. It draws one uniform per positive
// weight, in index order. The result is valid until the next Sample.
func (s *WeightedSampler) Sample(g *RNG, k int) []int {
	if k == 0 {
		return s.idx[:0]
	}
	for i, w := range s.w {
		if w > 0 {
			s.u[i] = float64(g.src.Uint64()<<11>>11) / (1 << 53) // Float64, inlined
		}
	}
	return s.pick(s.u, k)
}

// pick selects from given uniforms (u[i] in [0, 1) for every positive
// weight): the k largest keys Pow(u[i], 1/w[i]), in the order — ties
// included — in which a selection sort over all n keys finds them.
func (s *WeightedSampler) pick(u []float64, k int) []int {
	n := len(s.w)
	if k < 0 || k > n {
		panic(fmt.Sprintf("rng: weighted sample k=%d out of range [0, %d]", k, n))
	}
	keys, idx := s.keys[:n], s.idx[:n]
	if k == 0 {
		return idx[:0]
	}
	// The k largest lower brackets pay when k is small against n; otherwise
	// (kth = -Inf) every positive weight is a candidate and only the
	// brackets themselves are computed.
	kth := math.Inf(-1)
	if 4*k <= n {
		var certain bool
		if kth, certain = s.bracket(u, k); certain {
			return idx[:copy(idx, s.topIdx)]
		}
	} else {
		s.bounds(u)
	}
	// With no trusted k-th bracket, the brackets may still order every key:
	// then keys holds surrogates in the same order and no key is computed.
	// Otherwise only an item whose upper bracket reaches the k-th lower
	// bracket can have one of the k largest keys; every other positive
	// weight takes a key below all of those. The loop that follows returns
	// the first position of the maximum k times, which depends on nothing
	// else.
	if all := math.IsInf(kth, -1); !all || !s.surrogates() {
		for i, w := range s.w {
			switch {
			case !(w > 0):
				keys[i] = math.Inf(-1)
			case all || keys[i] >= kth:
				keys[i] = math.Pow(u[i], s.inv[i])
			default:
				keys[i] = -1
			}
		}
	}
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if keys[j] > keys[best] {
				best = j
			}
		}
		keys[i], keys[best] = keys[best], keys[i]
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// surrogates decides the order of every key from the brackets bounds left,
// when it can: each positive item must either be certainly 0 (its upper
// bracket is below zeroCutLog2) or have a normal key (its lower bracket is at
// least minCertifiedLog2) whose bracket is disjoint from every other such
// item's. Then it overwrites s.keys with surrogates in the keys' own order —
// ties included, since only the keys at 0 tie — and reports true: the lower
// bracket of a normal key, zeroCutLog2 for a key of 0, -Inf for a zero
// weight. Otherwise it leaves s.keys alone and reports false.
func (s *WeightedSampler) surrogates() bool {
	n := len(s.w)
	lo, hi := s.lo[:n], s.keys[:n]
	// normal holds the normal items seen so far by ascending lower bracket,
	// pairwise disjoint, so an item needs checking against its neighbours
	// only; the first overlap ends the attempt.
	normal := s.normal[:0]
	for i, w := range s.w {
		if !(w > 0) || hi[i] < zeroCutLog2 {
			continue
		}
		if !(lo[i] >= minCertifiedLog2) {
			return false
		}
		j, m := 0, len(normal) // j: the first position not below lo[i]
		for j < m {
			if h := int(uint(j+m) >> 1); lo[normal[h]] < lo[i] {
				j = h + 1
			} else {
				m = h
			}
		}
		if j > 0 && !(hi[normal[j-1]] < lo[i]) || j < len(normal) && !(hi[i] < lo[normal[j]]) {
			return false
		}
		normal = normal[:len(normal)+1]
		copy(normal[j+1:], normal[j:])
		normal[j] = i
	}
	for i, w := range s.w {
		switch {
		case !(w > 0):
			hi[i] = math.Inf(-1)
		case hi[i] < zeroCutLog2:
			hi[i] = zeroCutLog2
		default:
			hi[i] = lo[i]
		}
	}
	return true
}

// bracket leaves in s.lo and s.keys what bounds leaves, and in
// s.topLo/s.topIdx the k largest lower brackets with their items, and
// returns the k-th of those — -Inf when it is too low to be trusted or fewer
// than k weights are positive. certain reports that exactly k brackets reach
// it and they are pairwise disjoint: s.topIdx is then the k largest keys in
// descending order, with no tie among them.
func (s *WeightedSampler) bracket(u []float64, k int) (kth float64, certain bool) {
	s.topLo, s.topIdx = grow(s.topLo, k), grow(s.topIdx, k)
	topLo, topIdx := s.topLo, s.topIdx
	for j := range topLo {
		topLo[j], topIdx[j] = math.Inf(-1), -1
	}
	s.bounds(u)
	lo, keys := s.lo[:len(s.w)], s.keys[:len(s.w)]
	// Only a lower bracket above the running k-th goes through the insertion,
	// in index order, so ties keep the earlier item ahead.
	for i, l := range lo {
		if l > topLo[k-1] {
			j := k - 1
			for ; j > 0 && topLo[j-1] < l; j-- {
				topLo[j], topIdx[j] = topLo[j-1], topIdx[j-1]
			}
			topLo[j], topIdx[j] = l, i
		}
	}
	kth = topLo[k-1]
	if kth < minCertifiedLog2 {
		return math.Inf(-1), false
	}
	reach := 0
	for _, hi := range keys {
		if hi >= kth {
			reach++
		}
	}
	certain = reach == k
	for j := 1; j < k && certain; j++ {
		certain = keys[topIdx[j]] < topLo[j-1]
	}
	return kth, certain
}

// bounds leaves in s.lo and s.keys the lower and upper brackets on log2 key_i
// of every item, both -Inf at zero weight.
func (s *WeightedSampler) bounds(u []float64) {
	n := len(s.w)
	lo, hi := s.lo[:n], s.keys[:n]
	bracketsInto(lo, hi, u[:n], s.inv[:n], s.margin[:n], s.lanes)
	for _, i := range s.zero {
		lo[i], hi[i] = math.Inf(-1), math.Inf(-1)
	}
}

// bracketsInto is brackets, through bracketsAVX2 for whole groups of four
// items when lanes is set.
func bracketsInto(lo, hi, u, inv, margin []float64, lanes bool) {
	j := 0
	if nvec := len(lo) / 4; lanes && nvec > 0 {
		bracketsAVX2(&lo[0], &hi[0], &u[0], &inv[0], &margin[0], &log2Mid[0], nvec)
		j = 4 * nvec
	}
	brackets(lo[j:], hi[j:], u[j:], inv[j:], margin[j:])
}

// brackets sets lo[i] and hi[i] to the bracket on log2 u[i]^inv[i]: the
// exponent of u[i] plus the log2Mid entry of its mantissa, times inv[i],
// minus and plus margin[i]. An item of zero weight gets whatever its stale
// inputs give; bracket overwrites it.
func brackets(lo, hi, u, inv, margin []float64) {
	for i := range lo {
		bits := math.Float64bits(u[i])
		x := float64(int(bits>>52)-1023) + log2Mid[bits>>(52-log2Bits)&(1<<log2Bits-1)]
		l := inv[i]*x - margin[i]
		if bits>>52 == 0 { // zero or subnormal: the exponent field is no logarithm
			x, l = -1022, math.Inf(-1)
		}
		lo[i], hi[i] = l, inv[i]*x+margin[i]
	}
}

// WeightedSampleWithoutReplacement is a one-shot WeightedSampler: Reset on
// weights, then one Sample of k in [0, n].
func (g *RNG) WeightedSampleWithoutReplacement(weights []float64, k int) []int {
	if k == 0 {
		return nil
	}
	var s WeightedSampler
	s.Reset(weights)
	return s.Sample(g, k)
}

// grow returns b resized to length n, reallocating only on growth.
func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
