package hpo

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"noisyeval/internal/rng"
)

// drainStream answers every batch with ans's evaluations until the method
// finishes, returning its history.
func drainStream(t *testing.T, st *EvalStream, ans Oracle) *History {
	t.Helper()
	for {
		b, ok := st.Next()
		if !ok {
			if st.History() == nil {
				t.Fatal("stream finished without a history")
			}
			return st.History()
		}
		if len(b.Configs) == 0 || len(b.Out) != len(b.Configs) {
			t.Fatalf("batch of %d asks with %d answer slots", len(b.Configs), len(b.Out))
		}
		for i, cfg := range b.Configs {
			b.Out[i] = ans.Evaluate(cfg, b.RoundsAt(i), b.EvalIDAt(i))
		}
	}
}

// TestEvalStreamParity is the inversion contract: stepping any method
// through an EvalStream, answering each batch with the real oracle,
// reproduces the direct Run observation for observation.
func TestEvalStreamParity(t *testing.T) {
	methods := []Method{RandomSearch{}, GridSearch{}, SuccessiveHalving{}, TPE{}, Hyperband{}, FedPop{}, NoisyBO{}, ResampledRS{}}
	for _, m := range methods {
		t.Run(m.Name(), func(t *testing.T) {
			s := smallSettings()
			space := DefaultSpace()

			direct := newTestOracle(0.05)
			want := m.Run(direct, space, s, rng.New(42))

			st := NewEvalStream(m, newTestOracle(0.05), space, s, rng.New(42))
			defer st.Close()
			got := drainStream(t, st, newTestOracle(0.05))

			if !reflect.DeepEqual(want, got) {
				t.Fatalf("stream history diverges from direct run: %d vs %d obs", len(want.Observations), len(got.Observations))
			}
		})
	}
}

// TestEvalStreamCloseMidRun proves an abandoned stream unwinds cleanly: no
// history, no panic escaping Close, and further Next calls report done.
func TestEvalStreamCloseMidRun(t *testing.T) {
	st := NewEvalStream(SuccessiveHalving{}, newTestOracle(0.01), DefaultSpace(), smallSettings(), rng.New(7))
	b, ok := st.Next()
	if !ok {
		t.Fatal("expected a first batch")
	}
	for i := range b.Out {
		b.Out[i] = 0.5
	}
	st.Close()
	st.Close() // idempotent
	if st.History() != nil {
		t.Fatal("closed mid-run stream should have no history")
	}
	if _, ok := st.Next(); ok {
		t.Fatal("Next after Close should report done")
	}
}

// TestEvalStreamPropagatesMethodPanic pins panic transparency: a method
// panic surfaces at the Next call that resumed it, like a direct Run would.
func TestEvalStreamPropagatesMethodPanic(t *testing.T) {
	st := NewEvalStream(panickyMethod{}, newTestOracle(0.01), DefaultSpace(), smallSettings(), rng.New(7))
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected the method panic to propagate out of Next")
		}
	}()
	st.Next()
}

type panickyMethod struct{}

func (panickyMethod) Name() string { return "panicky" }
func (panickyMethod) Run(Oracle, Space, Settings, *rng.RNG) *History {
	panic("boom")
}

// TestIDCacheMatchesSprintf pins the interned evalID strings byte-equal to
// the legacy fmt.Sprintf derivation, across growth boundaries and under
// concurrent access.
func TestIDCacheMatchesSprintf(t *testing.T) {
	c := NewIDCache("rs-eval-")
	for _, n := range []int{0, 1, 7, 63, 64, 65, 128, 4095, -3} {
		want := fmt.Sprintf("rs-eval-%d", n)
		if got := c.ID(n); got != want {
			t.Fatalf("ID(%d) = %q, want %q", n, got, want)
		}
	}
	// Interning: repeated lookups return the identical string header.
	if a, b := c.ID(42), c.ID(42); a != b {
		t.Fatal("repeated ID lookups disagree")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 500; n++ {
				if got := c.ID(n); got != fmt.Sprintf("rs-eval-%d", n) {
					t.Errorf("concurrent ID(%d) = %q", n, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestIDCacheIDsView pins IDs(n) to ID(0..n-1) across table growth, and its
// capacity to n so an append never writes into the shared table.
func TestIDCacheIDsView(t *testing.T) {
	c := NewIDCache("grid-eval-")
	for _, n := range []int{0, 1, 16, 64, 65, 300} {
		ids := c.IDs(n)
		if len(ids) != n || cap(ids) != n {
			t.Fatalf("IDs(%d) has len %d cap %d", n, len(ids), cap(ids))
		}
		for i, id := range ids {
			if id != fmt.Sprintf("grid-eval-%d", i) {
				t.Fatalf("IDs(%d)[%d] = %q", n, i, id)
			}
		}
		if n > 0 {
			_ = append(ids, "x")
			if c.ID(n) != fmt.Sprintf("grid-eval-%d", n) {
				t.Fatalf("append to IDs(%d) overwrote ID(%d)", n, n)
			}
		}
	}
}

// TestReusableEvalStreamParity drives every method back to back through one
// reusable stream: each run reproduces its direct Run, Start refuses a
// stream that is mid-run or still holds a History, and Close ends the parked
// coroutine.
func TestReusableEvalStreamParity(t *testing.T) {
	st := NewReusableEvalStream()
	defer st.Close()
	methods := []Method{RandomSearch{}, GridSearch{}, SuccessiveHalving{}, TPE{}, Hyperband{}, FedPop{}, NoisyBO{}, ResampledRS{}}
	for round := 0; round < 2; round++ {
		for i, m := range methods {
			s, space := smallSettings(), DefaultSpace()
			want := m.Run(newTestOracle(0.05), space, s, rng.New(uint64(10*round+i)))
			st.Start(m, newTestOracle(0.05), space, s, rng.New(uint64(10*round+i)))
			if got := drainStream(t, st, newTestOracle(0.05)); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s (round %d) through a reused stream diverges from its direct run", m.Name(), round)
			}
			mustPanic(t, "Start before Release", func() { st.Start(m, newTestOracle(0.05), space, s, rng.New(1)) })
			st.Release()
		}
	}
	st.Start(SuccessiveHalving{}, newTestOracle(0.05), DefaultSpace(), smallSettings(), rng.New(3))
	if _, ok := st.Next(); !ok {
		t.Fatal("expected a first batch")
	}
	mustPanic(t, "Start mid-run", func() { st.Start(RandomSearch{}, newTestOracle(0.05), DefaultSpace(), smallSettings(), rng.New(1)) })
	st.Close()
	if _, ok := st.Next(); ok {
		t.Fatal("Next after Close should report done")
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}
