package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"
)

// weightRegimes are the six weight shapes the weighted sampler is pinned on:
// each fills w from g. They span what the evaluator produces ((acc+δ)^b with
// clients at accuracy 0), what breaks selection-by-key implementations (exact
// ties, zeros, keys that underflow) and 18 decades of dynamic range.
var weightRegimes = []struct {
	name string
	fill func(g *RNG, w []float64)
}{
	{"uniform", func(g *RNG, w []float64) {
		for i := range w {
			w[i] = g.Float64()
		}
	}},
	{"bias1.5", func(g *RNG, w []float64) {
		// (acc+δ)^1.5 at the paper's δ = 1e-4; one client in five has
		// accuracy 0 and so weight 1e-6.
		for i := range w {
			acc := g.Float64()
			if g.IntN(5) == 0 {
				acc = 0
			}
			w[i] = math.Pow(acc+1e-4, 1.5)
		}
	}},
	{"decades18", func(g *RNG, w []float64) {
		for i := range w {
			w[i] = math.Pow(10, g.Uniform(-9, 9))
		}
	}},
	{"halfzero", func(g *RNG, w []float64) {
		for i := range w {
			w[i] = 0
			if g.Bool(0.5) {
				w[i] = g.Uniform(0.1, 2)
			}
		}
		w[g.IntN(len(w))] = 1 // never all zero
	}},
	{"equal", func(g *RNG, w []float64) {
		c := g.Uniform(0.01, 3)
		for i := range w {
			w[i] = c
		}
	}},
	{"tiny", func(g *RNG, w []float64) {
		// Keys u^(1/w) with 1/w in 1e4..1e7: most underflow to exactly 0.
		for i := range w {
			w[i] = math.Pow(10, g.Uniform(-7, -4))
		}
	}},
}

// goldenKs returns the pinned sample sizes {1, 3, n/4, n/2, n} for a pool of n.
func goldenKs(n int) []int { return []int{1, min(3, n), n / 4, n / 2, n} }

// TestWeightedSampleGolden pins the weighted sampler's output — every
// returned subset in order, and the generator's position afterwards — to a
// hash recorded on the all-keys Efraimidis-Spirakis loop. The evaluator's
// parity tests (blocked vs sequential, multi vs single) share the sampler and
// cannot see it change; this can.
func TestWeightedSampleGolden(t *testing.T) {
	const want = "3976f39dc716cad70ee4f066c5e2e427599dc0264afc95ddf82639790f311832"
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for _, n := range []int{13, 50, 80} {
		w := make([]float64, n)
		for ri, regime := range weightRegimes {
			for seed := uint64(1); seed <= 8; seed++ {
				regime.fill(New(seed).Splitf("weights-%d-%d", n, ri), w)
				for _, k := range goldenKs(n) {
					g := New(seed).Splitf("draw-%d-%d-%d", n, ri, k)
					for rep := 0; rep < 4; rep++ {
						for _, i := range g.WeightedSampleWithoutReplacement(w, k) {
							put(uint64(i))
						}
						put(g.Uint64())
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("weighted-sample golden = %s, want %s", got, want)
	}
}

// TestWeightedSampleMatchesReference is the differential test of the
// bracketed selection: 300 000 random draws over the six regimes, pool sizes
// 1..80 and every k, each compared with the all-keys reference loop on the
// subset, its order, and the generator's position afterwards.
func TestWeightedSampleMatchesReference(t *testing.T) {
	const vectors, drawsPerVector = 500, 100
	var s WeightedSampler
	keyBuf, idxBuf := make([]float64, 80), make([]int, 80)
	for ri, regime := range weightRegimes {
		meta := New(1234).Splitf("regime-%d", ri)
		for v := 0; v < vectors; v++ {
			n := 1 + meta.IntN(80)
			w := make([]float64, n)
			regime.fill(meta, w)
			s.Reset(w)
			got, ref := New(meta.Uint64()), New(0)
			ref.Reseed(got.Seed())
			for d := 0; d < drawsPerVector; d++ {
				k := meta.IntN(n + 1)
				if d%2 == 0 { // half the draws where bracketing applies
					k = meta.IntN(n/4 + 1)
				}
				a := s.Sample(got, k)
				b := ref.referenceWeightedSampleInto(w, k, keyBuf, idxBuf)
				if !slices.Equal(a, b) {
					t.Fatalf("%s n=%d k=%d vector %d draw %d: got %v, reference %v (weights %v)",
						regime.name, n, k, v, d, a, b, w)
				}
				if got.Uint64() != ref.Uint64() {
					t.Fatalf("%s n=%d k=%d: stream position diverged", regime.name, n, k)
				}
			}
		}
	}
}

// checkPick compares pick with the reference on hand-made uniforms for every
// k up to maxK.
func checkPick(t *testing.T, name string, w, u []float64, maxK int) {
	t.Helper()
	var s WeightedSampler
	s.Reset(w)
	for k := 0; k <= maxK; k++ {
		if got, want := s.pick(u, k), referencePick(w, u, k); !slices.Equal(got, want) {
			t.Fatalf("%s k=%d: got %v, reference %v\nweights  %v\nuniforms %v", name, k, got, want, w, u)
		}
		checkLanes(t, name, w, u, k)
	}
}

// checkLanes holds the bracket pass with lanes — the AVX2 kernel, on a CPU
// that has it — to the same pass through the Go loop: every lower and upper
// bracket identical to the bit, and the same k largest lower brackets, items,
// k-th and certificate. k outside [1, n] has no bracket pass.
func checkLanes(t *testing.T, name string, w, u []float64, k int) {
	t.Helper()
	if k < 1 || k > len(w) {
		return
	}
	var lanes, port WeightedSampler
	lanes.Reset(w)
	port.Reset(w)
	port.lanes = false
	kl, cl := lanes.bracket(u, k)
	kp, cp := port.bracket(u, k)
	for i := range w {
		if math.Float64bits(lanes.lo[i]) != math.Float64bits(port.lo[i]) ||
			math.Float64bits(lanes.keys[i]) != math.Float64bits(port.keys[i]) {
			t.Fatalf("%s k=%d item %d (w %v, u %v): lanes bracket [%v, %v], Go loop [%v, %v]",
				name, k, i, w[i], u[i], lanes.lo[i], lanes.keys[i], port.lo[i], port.keys[i])
		}
	}
	if !slices.Equal(lanes.topIdx, port.topIdx) || !slices.Equal(lanes.topLo, port.topLo) ||
		math.Float64bits(kl) != math.Float64bits(kp) || cl != cp {
		t.Fatalf("%s k=%d: lanes top %v (k-th %v, certain %v), Go loop %v (k-th %v, certain %v)",
			name, k, lanes.topIdx, kl, cl, port.topIdx, kp, cp)
	}
}

func filled(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestWeightedSamplePickAdversarial feeds the selection what random draws
// never produce: exact ties (the position rule of the selection loop must
// decide them as before), the ends of the uniform's range, uniforms on the
// edges of the log2 table's buckets under unequal weights, and keys on both
// sides of the underflow guard.
func TestWeightedSamplePickAdversarial(t *testing.T) {
	const n = 16
	top := 1 - 0x1p-53

	// Ties: equal uniforms under equal weights, everywhere and in part.
	for _, u0 := range []float64{0.7, 0.5, 0, top, 0x1p-53} {
		for _, w0 := range []float64{1, 1e-6, 3, 1e9} {
			checkPick(t, "all tied", filled(n, w0), filled(n, u0), n)
			u := filled(n, u0)
			u[3], u[9], u[12] = 0.9, 0.9, 0.3
			checkPick(t, "partly tied", filled(n, w0), u, n)
		}
	}
	// A huge weight rounds its key to exactly 1: ties at the top.
	w := filled(n, 1)
	w[2], w[5], w[11] = 1e300, math.Inf(1), 1e300
	checkPick(t, "keys of 1", w, filled(n, 0.25), n)
	// A weight so small that 1/w overflows: key 0 whatever the uniform.
	w = filled(n, 0.5)
	w[0], w[7] = 5e-324, 1e-310
	u := filled(n, 0.6)
	u[0], u[7] = top, top
	checkPick(t, "1/w overflows", w, u, n)
	// Zero and subnormal uniforms beside ordinary ones.
	u = filled(n, 0.4)
	u[1], u[4], u[6], u[10] = 0, 5e-324, 0x1p-1030, 0
	checkPick(t, "zero and subnormal uniforms", filled(n, 2), u, n)
	w = filled(n, 1)
	w[4], w[6] = 1e300, 1e-3
	checkPick(t, "zero and subnormal uniforms, mixed weights", w, u, n)

	// Bucket edges: uniforms at, just below and just above an edge of the
	// log2 table, in several binades, under weights that differ — so that a
	// table or margin that is off decides a close pair the wrong way.
	var edges []float64
	for _, e := range []int{-1, -2, -7, -40} {
		for _, b := range []int{0, 1, 2, 511, 1023, 1024, 1025, 2046, 2047} {
			x := math.Ldexp(1+float64(b)/(1<<log2Bits), e)
			edges = append(edges, x, math.Nextafter(x, 0), math.Nextafter(x, 1))
		}
	}
	ws := []float64{1, 2, 0.5, 1.0001, 0.9999, 1.05, 0.95, 1e-2, 7}
	g := New(99)
	u, w = make([]float64, n), make([]float64, n)
	for c := 0; c < 20000; c++ {
		for i := range u {
			u[i], w[i] = edges[g.IntN(len(edges))], ws[g.IntN(len(ws))]
		}
		checkPick(t, "bucket edges", w, u, 4)
	}
	// A close pair built on purpose: item 0 sits at the top of a bucket with
	// weight 1, item 1 at the bottom of a bucket with weight 2 and a key a
	// hair (δ in log2) below or above; the rest are far away.
	for _, b := range []int{0, 100, 1023, 2047} {
		for _, delta := range []float64{-6e-4, -3e-4, -1e-5, 1e-5, 3e-4, 6e-4} {
			u, w = filled(n, 0.01), filled(n, 1)
			u[0] = math.Nextafter(math.Ldexp(1+float64(b+1)/(1<<log2Bits), -1), 0)
			u[1], w[1] = math.Exp2(2*(math.Log2(u[0])+delta)), 2
			checkPick(t, "close pair", w, u, 4)
		}
	}

	// The underflow guard: u = 1/2 makes log2 key = -1/w exactly, so these
	// keys run from 2^-990 through the subnormals to 0, twice each (ties at 0).
	for _, fillU := range []float64{0.5, 0.25} {
		u, w = filled(n, fillU), make([]float64, n)
		for i, l := range []float64{990, 999, 1000, 1001, 1022, 1023, 1074, 1100} {
			w[i], w[n-1-i] = 1/l, 1/l
		}
		checkPick(t, "guard", w, u, n)
		w[0], w[15] = 1, 1 // two keys far above it
		checkPick(t, "guard, two normal keys", w, u, n)
	}

	// k = n, the whole pool in key order (Figure 6's full-pool draws). The
	// brackets order every key when each is certainly 0 or normal with a
	// bracket of its own; these pools sit on each side of that line.
	// Keys tied at exactly 0: all of them, then all but three normal ones.
	u = make([]float64, n)
	for i := range u {
		u[i] = 0.05 + 0.9*float64(i)/n
	}
	checkPick(t, "k = n, every key 0", filled(n, 1e-4), u, n)
	w = filled(n, 1e-4)
	w[2], w[9], w[13] = 0.5, 2, 0.7
	checkPick(t, "k = n, keys 0 beside normal keys", w, u, n)
	w[5], w[11] = 0, 0
	checkPick(t, "k = n, keys 0 beside zero weights", w, u, n)
	// Straddling the zero cut and the guard: u = 1/2 makes log2 key = -1/w,
	// so item 3 moves from a normal key through the subnormals to a key
	// certainly 0 while the rest stay far on either side.
	for _, l := range []float64{990, 999, 1000, 1001, 1022, 1060, 1074, 1075, 1076, 1079, 1080, 1081, 1100, 1e4} {
		u, w = filled(n, 0.5), filled(n, 1/2e4)
		w[0], w[7], w[12] = 1, 0.25, 1/500.0
		w[3] = 1 / l
		checkPick(t, "k = n, zero cut and guard", w, u, n)
		w[8] = 1 / l // a tie with item 3, wherever it lands
		checkPick(t, "k = n, zero cut and guard, tied", w, u, n)
	}
	// Overlapping normal brackets: two keys a few ulps apart, then equal,
	// among keys certainly 0 and keys far apart.
	for _, d := range []int{0, 1, 3} {
		u, w = filled(n, 0.01), filled(n, 1e-4)
		w[1], w[4], w[6], w[10] = 1, 1, 3, 0.2
		u[1], u[4], u[6], u[10] = 0.6, 0.6, 0.3, 0.9
		for j := 0; j < d; j++ {
			u[4] = math.Nextafter(u[4], 1)
		}
		checkPick(t, "k = n, overlapping normal brackets", w, u, n)
	}
}

// TestWeightedSampleZeroCut holds the underflow cut to math.Pow itself: on
// keys whose logarithm runs across the subnormals, every upper bracket below
// zeroCutLog2 must belong to a key Pow rounds to exactly 0, and every lower
// bracket at or above minCertifiedLog2 to a normal key at least that large.
func TestWeightedSampleZeroCut(t *testing.T) {
	const draws = 200000
	g := New(17)
	var s WeightedSampler
	w, u := make([]float64, 1), make([]float64, 1)
	zeros, normals := 0, 0
	for d := 0; d < draws; d++ {
		u[0] = g.Float64()
		if d%4 == 0 {
			u[0] = 1 - u[0]*0x1p-20 // log2 u near 0: the largest exponents
		}
		w[0] = -math.Log2(u[0]) / g.Uniform(990, 1120)
		if !(w[0] > 0) {
			continue
		}
		s.Reset(w)
		s.bracket(u, 1)
		key := math.Pow(u[0], s.inv[0])
		if s.keys[0] < zeroCutLog2 {
			zeros++
			if key != 0 {
				t.Fatalf("u=%v w=%v: upper bracket %v below the cut, but Pow gives %v", u[0], w[0], s.keys[0], key)
			}
		}
		if s.lo[0] >= minCertifiedLog2 {
			normals++
			if !(key >= math.Exp2(s.lo[0])) || key < 0x1p-1022 {
				t.Fatalf("u=%v w=%v: lower bracket %v, but Pow gives %v", u[0], w[0], s.lo[0], key)
			}
		}
	}
	if zeros < draws/10 || normals < draws/20 {
		t.Fatalf("only %d keys below the cut and %d normal ones of %d draws", zeros, normals, draws)
	}
}

// TestWeightedSampleCertifiedShare measures, at the bench bank's shape (50
// clients, 3 per cohort, (acc+δ)^1.5 weights), how often bracketing alone
// decides the draw and how many keys it computes when it does not. The floor
// is loose on purpose: it fails when a margin change turns the bracketed
// path back into the all-keys loop, not on a percent.
func TestWeightedSampleCertifiedShare(t *testing.T) {
	const n, k, vectors, draws = 50, 3, 200, 500
	var s WeightedSampler
	g := New(5)
	w := make([]float64, n)
	certified, total, candidates := 0, 0, 0
	for v := 0; v < vectors; v++ {
		weightRegimes[1].fill(g, w)
		s.Reset(w)
		for d := 0; d < draws; d++ {
			for i := range w {
				s.u[i] = g.Float64()
			}
			kth, certain := s.bracket(s.u, k)
			total++
			if certain {
				certified++
				continue
			}
			for _, hi := range s.keys[:n] {
				if hi >= kth {
					candidates++
				}
			}
		}
	}
	share := float64(certified) / float64(total)
	perCall := float64(candidates) / float64(total-certified)
	t.Logf("certified %.1f%% of %d draws; %.2f keys computed per uncertified draw", 100*share, total, perCall)
	if share < 0.8 || perCall > 6 {
		t.Errorf("bracketing decides %.1f%% of draws and computes %.2f keys otherwise; want >= 80%% and <= 6", 100*share, perCall)
	}

	// Figure 6's full-pool draws: k = n over a dozen or so clients under
	// (acc+δ)^b, a fifth of them at accuracy 0 (keys near 2^-14000). A draw
	// is decided without Pow when the surrogates order it (a draw bracket
	// would certify is one of those).
	decided, total := 0, 0
	for _, n := range []int{12, 14, 15} {
		for _, b := range []float64{1, 1.5, 3} {
			w := make([]float64, n)
			for v := 0; v < 50; v++ {
				for i := range w {
					acc := g.Float64()
					if g.IntN(5) == 0 {
						acc = 0
					}
					w[i] = math.Pow(acc+1e-4, b)
				}
				s.Reset(w)
				for d := 0; d < 100; d++ {
					for i := range w {
						s.u[i] = g.Float64()
					}
					s.bounds(s.u)
					if s.surrogates() {
						decided++
					}
					total++
				}
			}
		}
	}
	share = float64(decided) / float64(total)
	t.Logf("full pool: decided %.1f%% of %d draws without Pow", 100*share, total)
	if share < 0.9 {
		t.Errorf("the brackets decide %.1f%% of full-pool draws; want >= 90%%", 100*share)
	}
}

// FuzzWeightedSample decodes bytes into a pool (weights, one uniform each)
// and a k, and holds the bracketed selection to the all-keys reference and
// the lanes' bracket pass to the Go loop's (checkLanes).
func FuzzWeightedSample(f *testing.F) {
	encode := func(k int, w, u []float64) []byte {
		out := []byte{byte(len(w)), byte(k)}
		for i := range w {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(w[i]))
			out = binary.LittleEndian.AppendUint64(out, uint64(u[i]*(1<<53))<<11)
		}
		return out
	}
	g := New(3)
	for _, regime := range weightRegimes {
		w, u := make([]float64, 24), make([]float64, 24)
		regime.fill(g, w)
		for i := range u {
			u[i] = g.Float64()
		}
		f.Add(encode(3, w, u))
	}
	f.Add(encode(2, filled(12, 1), filled(12, 0.5)))
	f.Add(encode(1, []float64{1 / 990.0, 1 / 1001.0, 1 / 1100.0, 1 / 1100.0}, filled(4, 0.5)))
	f.Add(encode(5, []float64{1, 1 / 1070.0, 1 / 1100.0, 1e-4, 0.3}, []float64{0.5, 0.5, 0.5, 0.7, 0.2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := min(int(data[0]), (len(data)-2)/16)
		if n == 0 {
			return
		}
		k := int(data[1]) % (n + 1)
		w, u := make([]float64, n), make([]float64, n)
		positive := false
		for i := range w {
			rec := data[2+16*i:]
			w[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec) &^ (1 << 63))
			if math.IsNaN(w[i]) {
				w[i] = 0
			}
			positive = positive || w[i] > 0
			u[i] = float64(binary.LittleEndian.Uint64(rec[8:])>>11) * 0x1p-53
		}
		if !positive {
			return
		}
		var s WeightedSampler
		s.Reset(w)
		if got, want := s.pick(u, k), referencePick(w, u, k); !slices.Equal(got, want) {
			t.Fatalf("k=%d: got %v, reference %v\nweights  %v\nuniforms %v", k, got, want, w, u)
		}
		checkLanes(t, "fuzz", w, u, k)
	})
}

// BenchmarkWeightedSample times one draw at the bench bank's shape (50
// clients, 3 per cohort, (acc+δ)^1.5 weights) through the sampler and through
// the all-keys reference loop.
func BenchmarkWeightedSample(b *testing.B) {
	const n, k = 50, 3
	w := make([]float64, n)
	weightRegimes[1].fill(New(5), w)
	b.Run("sampler", func(b *testing.B) {
		var s WeightedSampler
		s.Reset(w)
		g := New(1)
		for i := 0; i < b.N; i++ {
			s.Sample(g, k)
		}
	})
	b.Run("reference", func(b *testing.B) {
		keyBuf, idxBuf := make([]float64, n), make([]int, n)
		g := New(1)
		for i := 0; i < b.N; i++ {
			g.referenceWeightedSampleInto(w, k, keyBuf, idxBuf)
		}
	})
}

// BenchmarkWeightedSampleFullPool times one k = n draw, Figure 6's full-pool
// shape: (acc+δ)^1.5 weights, a fifth of the clients at accuracy 0, over the
// 15 clients of the quick scale and femnist's 360 and stackoverflow's 3 678
// at full scale.
func BenchmarkWeightedSampleFullPool(b *testing.B) {
	for _, n := range []int{15, 360, 3678} {
		w := make([]float64, n)
		weightRegimes[1].fill(New(5), w)
		b.Run(fmt.Sprintf("n=%d/sampler", n), func(b *testing.B) {
			var s WeightedSampler
			s.Reset(w)
			g := New(1)
			for i := 0; i < b.N; i++ {
				s.Sample(g, n)
			}
		})
		b.Run(fmt.Sprintf("n=%d/reference", n), func(b *testing.B) {
			keyBuf, idxBuf := make([]float64, n), make([]int, n)
			g := New(1)
			for i := 0; i < b.N; i++ {
				g.referenceWeightedSampleInto(w, n, keyBuf, idxBuf)
			}
		})
	}
}
