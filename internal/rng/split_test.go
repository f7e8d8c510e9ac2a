package rng

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// assertSameStream verifies two streams have identical seed, path, and the
// same next draws — the contract that lets the allocation-free split helpers
// replace Splitf without invalidating any existing bank or experiment output.
func assertSameStream(t *testing.T, want, got *RNG, ctx string) {
	t.Helper()
	if want.Seed() != got.Seed() {
		t.Fatalf("%s: seed %d != %d", ctx, got.Seed(), want.Seed())
	}
	if want.Path() != got.Path() {
		t.Fatalf("%s: path %q != %q", ctx, got.Path(), want.Path())
	}
	for i := 0; i < 16; i++ {
		w, g := want.Uint64(), got.Uint64()
		if w != g {
			t.Fatalf("%s: draw %d: %d != %d", ctx, i, g, w)
		}
	}
}

// TestSplitSeedIsFNVOfPath pins what every split derives a child seed from:
// the FNV-1a hash of "%016x/%s/%s" over the parent's seed, the parent's path
// and the label, computed here with hash/fnv and fmt. Parents include a
// stream reseeded in place by SplitIntInto; labels run from empty to 40
// bytes.
func TestSplitSeedIsFNVOfPath(t *testing.T) {
	parents := []func() *RNG{
		func() *RNG { return New(0) },
		func() *RNG { return New(42).Split("train") },
		func() *RNG { return New(^uint64(0)) },
		func() *RNG {
			g := New(0)
			New(9).Split("outer").SplitIntInto(g, "round-", 3)
			return g
		},
	}
	labels := []string{"", "pool", "client-7-round-12", strings.Repeat("x", 40)}
	for _, parent := range parents {
		for _, label := range labels {
			ref := parent()
			h := fnv.New64a()
			fmt.Fprintf(h, "%016x/%s/%s", ref.Seed(), ref.Path(), label)
			if got := parent().Split(label).Seed(); got != h.Sum64() {
				t.Errorf("Split(%q) under %q: seed %#x, FNV-1a of the path %#x", label, ref.Path(), got, h.Sum64())
			}
		}
	}
}

// TestSplitIntoMatchesSplitf pins the derivation-key equality between the
// fmt-free helpers and the original Splitf paths used by existing banks.
func TestSplitIntoMatchesSplitf(t *testing.T) {
	parents := []*RNG{
		New(0),
		New(42),
		New(42).Split("train"),
		New(7).Split("config-3").Split("train"),
		New(^uint64(0)),
	}
	ints := []int{0, 1, 9, 10, 99, 100, 404, 405, 123456789, -1, -42}
	for pi, parent := range parents {
		dst := New(0)
		for _, n := range ints {
			parent.SplitIntInto(dst, "round-", n)
			assertSameStream(t, parent.Splitf("round-%d", n), dst,
				fmt.Sprintf("parent %d SplitIntInto round-%d", pi, n))
			for _, m := range ints {
				parent.SplitInt2Into(dst, "client-", n, "-round-", m)
				assertSameStream(t, parent.Splitf("client-%d-round-%d", n, m), dst,
					fmt.Sprintf("parent %d SplitInt2Into client-%d-round-%d", pi, n, m))
			}
		}
		for _, label := range []string{"train", "init", "pool", "", "a/b", "répétition"} {
			parent.SplitInto(dst, label)
			assertSameStream(t, parent.Split(label), dst,
				fmt.Sprintf("parent %d SplitInto %q", pi, label))
		}
	}
}

// TestSplitIntoChildSplits verifies a reseeded child derives the same
// grandchildren as a freshly allocated one (the path SplitIntInto wrote in
// the child's buffer is the one its own splits hash).
func TestSplitIntoChildSplits(t *testing.T) {
	parent := New(11).Split("train")
	dst := New(0)
	parent.SplitIntInto(dst, "round-", 17)
	want := parent.Splitf("round-%d", 17).Split("sub")
	got := dst.Split("sub")
	assertSameStream(t, want, got, "grandchild")
}

// TestSplitIntoReuse checks that reusing one destination across many splits
// leaves no cross-contamination between consecutive streams.
func TestSplitIntoReuse(t *testing.T) {
	parent := New(3)
	dst := New(0)
	for round := 0; round < 50; round++ {
		parent.SplitIntInto(dst, "round-", round)
		want := parent.Splitf("round-%d", round)
		// Interleave draws with the equality check.
		for i := 0; i < 4; i++ {
			if w, g := want.IntN(1000), dst.IntN(1000); w != g {
				t.Fatalf("round %d draw %d: %d != %d", round, i, g, w)
			}
		}
	}
}

func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		a, b := New(5).Split("p"), New(5).Split("p")
		dst := make([]int, n)
		b.PermInto(dst)
		want := a.Perm(n)
		for i := range want {
			if want[i] != dst[i] {
				t.Fatalf("n=%d: PermInto %v != Perm %v", n, dst, want)
			}
		}
		// Both must leave the stream in the same state.
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: stream state diverged after PermInto", n)
		}
	}
}

func TestSampleWithoutReplacementIntoMatches(t *testing.T) {
	buf := make([]int, 100)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 3}, {10, 10}, {100, 7}, {1, 1}} {
		a, b := New(9).Split("s"), New(9).Split("s")
		want := a.SampleWithoutReplacement(tc.n, tc.k)
		got := b.SampleWithoutReplacementInto(tc.n, tc.k, buf)
		if len(want) != len(got) {
			t.Fatalf("n=%d k=%d: len %d != %d", tc.n, tc.k, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("n=%d k=%d: %v != %v", tc.n, tc.k, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d k=%d: stream state diverged", tc.n, tc.k)
		}
	}
}

// TestSplitIntoAllocationFree asserts the steady-state allocation contract
// that motivated the helpers: deriving hot-path child streams costs zero
// heap allocations once buffers are warm.
func TestSplitIntoAllocationFree(t *testing.T) {
	parent := New(1).Split("train")
	dst := New(0)
	perm := make([]int, 40)
	buf := make([]int, 40)
	round := 0
	allocs := testing.AllocsPerRun(200, func() {
		parent.SplitIntInto(dst, "round-", round)
		dst.SampleWithoutReplacementInto(40, 10, buf)
		parent.SplitInt2Into(dst, "client-", round%17, "-round-", round)
		dst.PermInto(perm)
		round++
	})
	if allocs != 0 {
		t.Fatalf("hot-path split helpers allocate %.1f/op, want 0", allocs)
	}
}

// TestSplitIntoNestedScratch chains scratch streams — each split off the
// previous one — against the same chain of Splitf calls, to a 79-byte path,
// and asserts the chain allocates nothing once the buffers are warm: each
// child rewrites its parent's path and its label in its own buffer.
func TestSplitIntoNestedScratch(t *testing.T) {
	root := New(8).Split("fedtune")
	a, b, c := New(0), New(0), New(0)
	for i := 0; i < 40; i++ {
		root.SplitInt2Into(a, "bracket-", i%5, "-cfg-", i)
		a.SplitInto(b, "tpe")
		b.SplitIntInto(c, "a-label-long-enough-to-leave-the-inline-buffer-", i)
		wantA := root.Splitf("bracket-%d-cfg-%d", i%5, i)
		wantB := wantA.Split("tpe")
		wantC := wantB.Splitf("a-label-long-enough-to-leave-the-inline-buffer-%d", i)
		assertSameStream(t, wantC, c, fmt.Sprintf("depth 3, i=%d", i))
		assertSameStream(t, wantB, b, fmt.Sprintf("depth 2, i=%d", i))
		assertSameStream(t, wantA, a, fmt.Sprintf("depth 1, i=%d", i))
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		root.SplitInt2Into(a, "bracket-", i%5, "-cfg-", i%100)
		a.SplitInto(b, "tpe")
		b.SplitIntInto(c, "a-label-long-enough-to-leave-the-inline-buffer-", i%100)
		c.IntN(64)
		i++
	})
	if allocs != 0 {
		t.Fatalf("nested scratch splits allocate %.1f/op, want 0", allocs)
	}
}

// FuzzSplitChain reads a chain of up to six steps from the input, each one
// of Split, Splitf, SplitInto, SplitIntInto, SplitInt2Into or Reseed, with
// labels from empty to longer than the inline path buffer, and holds every
// stream to the one the same chain of Splitf calls (New for a Reseed)
// derives: seed, path and the next 16 draws. Each split's seed must also be
// hash/fnv over "%016x/%s/%s" of its parent's seed and path and the label.
// The chain runs twice over the same scratch streams, shifted by one, so the
// second pass reseeds and rewrites streams the first one left with another
// seed, path and cached prefix, in an inline or a grown buffer.
func FuzzSplitChain(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(8), []byte{0, 7, 'f', 'e', 'd', 't', 'u', 'n', 'e', 4, 6, 't', 'r', 'i', 'a', 'l', '-', 0, 3})
	f.Add(uint64(1), append([]byte{2, 99}, strings.Repeat("x", 99)...))
	f.Add(^uint64(0), []byte{3, 13, 'b', 'r', 'a', 'c', 'k', 'e', 't', '-', '-', 'c', 'f', 'g', '-', 0x80, 1, 0xff, 0xfe, 5, 0, 1, 2, 1, 'a', 0, 9})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		const steps = 6
		var scratch [steps]*RNG
		for i := range scratch {
			scratch[i] = New(0)
		}
		chain := func(pass int) {
			want, got := New(seed), New(seed)
			for i := 0; i < steps && len(data) > 0; i++ {
				op := next() % 6
				n := min(int(next())%100, len(data))
				label := string(data[:n])
				data = data[n:]
				a := int(int16(uint16(next())<<8 | uint16(next())))
				b := int(int16(uint16(next())<<8 | uint16(next())))
				p1, p2 := label[:n/2], label[n/2:]
				parent, dst := got, scratch[(i+pass)%steps]
				var lbl string
				switch op {
				case 0:
					lbl = label
					want, got = want.Split(lbl), got.Split(lbl)
				case 1:
					lbl = fmt.Sprintf("%s%d", label, a)
					want, got = want.Splitf("%s%d", label, a), got.Splitf("%s%d", label, a)
				case 2:
					lbl = label
					parent.SplitInto(dst, label)
					want, got = want.Splitf("%s", label), dst
				case 3:
					lbl = fmt.Sprintf("%s%d", label, a)
					parent.SplitIntInto(dst, label, a)
					want, got = want.Splitf("%s%d", label, a), dst
				case 4:
					lbl = fmt.Sprintf("%s%d%s%d", p1, a, p2, b)
					parent.SplitInt2Into(dst, p1, a, p2, b)
					want, got = want.Splitf("%s%d%s%d", p1, a, p2, b), dst
				case 5:
					s := seed ^ uint64(a)<<16 ^ uint64(b)
					dst.Reseed(s)
					want, got = New(s), dst
				}
				ctx := fmt.Sprintf("pass %d step %d op %d label %q", pass, i, op, label)
				if op != 5 {
					h := fnv.New64a()
					fmt.Fprintf(h, "%016x/%s/%s", parent.Seed(), parent.Path(), lbl)
					if got.Seed() != h.Sum64() {
						t.Fatalf("%s: seed %#x, FNV-1a of the path %#x", ctx, got.Seed(), h.Sum64())
					}
				}
				assertSameStream(t, want, got, ctx)
			}
		}
		input := data
		for pass := 0; pass < 2; pass++ {
			data = input
			chain(pass)
		}
	})
}
