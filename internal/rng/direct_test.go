package rng

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestDirectDrawsMatchRandV2 holds the draws RNG takes straight from its PCG
// source to math/rand/v2 over the same source: every value, and the stream
// position after it (the next Uint64 of both sides agrees). The IntN bounds
// cover 1, powers of two, 2^32±1 and 2^62+1, where Lemire's rejection runs on
// a quarter of the draws (the bounds above 2^31 only where int has 64 bits). On GOARCH=386 rand/v2 reduces a
// bound below 2^32 through its 32-bit path, so the same test run there holds
// the 64-bit reduction to that one too.
func TestDirectDrawsMatchRandV2(t *testing.T) {
	seeds := 10000
	if testing.Short() {
		seeds = 1000
	}
	var bounds []int
	for _, n := range []uint64{1, 2, 3, 7, 50, 64, 1000, 1 << 20, 1<<31 - 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 62, 1<<62 + 1, 1<<63 - 1} {
		if n <= uint64(^uint(0)>>1) {
			bounds = append(bounds, int(n))
		}
	}
	perm := make([]int, 0, 40)
	for s := 0; s < seeds; s++ {
		seed := uint64(s)*0x9e3779b97f4a7c15 + uint64(s)
		g := New(seed)
		r := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		if got, want := g.Uint64(), r.Uint64(); got != want {
			t.Fatalf("seed %d: Uint64 %d, rand/v2 %d", seed, got, want)
		}
		for i := 0; i < 4; i++ {
			if got, want := g.Float64(), r.Float64(); got != want {
				t.Fatalf("seed %d: Float64 %v, rand/v2 %v", seed, got, want)
			}
		}
		for _, n := range bounds {
			if got, want := g.IntN(n), r.IntN(n); got != want {
				t.Fatalf("seed %d: IntN(%d) = %d, rand/v2 %d", seed, n, got, want)
			}
		}
		n := s % 40
		if got, want := g.Perm(n), r.Perm(n); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Perm(%d) = %v, rand/v2 %v", seed, n, got, want)
		}
		perm = perm[:n]
		g.PermInto(perm)
		if want := r.Perm(n); !slices.Equal(perm, want) {
			t.Fatalf("seed %d: PermInto(%d) = %v, rand/v2 %v", seed, n, perm, want)
		}
		a, b := make([]int, n), make([]int, n)
		for i := range a {
			a[i], b[i] = i*i, i*i
		}
		g.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
		r.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
		if !slices.Equal(a, b) {
			t.Fatalf("seed %d: Shuffle(%d) = %v, rand/v2 %v", seed, n, a, b)
		}
		if got, want := g.Uint64(), r.Uint64(); got != want {
			t.Fatalf("seed %d: the streams part after the draws: %d, rand/v2 %d", seed, got, want)
		}
	}
}
