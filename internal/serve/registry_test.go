package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"noisyeval/internal/exper"
	"noisyeval/pkg/client"
)

// fakeClock is an injectable registry clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestRegistry(ttl time.Duration) (*Registry, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	reg := NewRegistry(ttl)
	reg.now = clk.now
	return reg, clk
}

func testReq(seed uint64) (client.RunRequest, exper.TuneRequest) {
	req := client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: seed, Scale: "quick"}
	treq, err := tuneRequest(req)
	if err != nil {
		panic(err)
	}
	return req, treq
}

func TestRegistryDedupAndIDs(t *testing.T) {
	reg, _ := newTestRegistry(time.Minute)
	req, treq := testReq(1)

	a, created := reg.GetOrCreate("key-a", req, treq)
	if !created || a.ID == "" {
		t.Fatalf("first GetOrCreate: created=%v id=%q", created, a.ID)
	}
	b, created := reg.GetOrCreate("key-a", req, treq)
	if created || b != a {
		t.Fatal("identical key did not dedup onto the live run")
	}
	c, created := reg.GetOrCreate("key-b", req, treq)
	if !created || c == a || c.ID == a.ID {
		t.Fatal("distinct key shared a run")
	}
	if got, ok := reg.Get(a.ID); !ok || got != a {
		t.Fatal("Get by ID failed")
	}
	if reg.Len() != 2 {
		t.Fatalf("Len = %d, want 2", reg.Len())
	}
}

func TestRegistryTTLEviction(t *testing.T) {
	const ttl = time.Minute
	reg, clk := newTestRegistry(ttl)
	req, treq := testReq(1)

	run, _ := reg.GetOrCreate("key", req, treq)
	run.start(clk.now())

	// Live runs are never evicted, no matter how old.
	clk.advance(100 * ttl)
	reg.Sweep()
	if _, ok := reg.Get(run.ID); !ok {
		t.Fatal("live run evicted")
	}

	// Terminal runs survive until TTL, then disappear from both indexes.
	run.finish(StateDone, nil, "", clk.now())
	clk.advance(ttl / 2)
	reg.Sweep()
	if _, ok := reg.Get(run.ID); !ok {
		t.Fatal("terminal run evicted before TTL")
	}
	if r, created := reg.GetOrCreate("key", req, treq); created || r != run {
		t.Fatal("retained terminal run did not satisfy dedup")
	}

	clk.advance(ttl)
	reg.Sweep()
	if _, ok := reg.Get(run.ID); ok {
		t.Fatal("terminal run not evicted after TTL")
	}
	if reg.Len() != 0 {
		t.Fatalf("Len = %d after eviction", reg.Len())
	}
	fresh, created := reg.GetOrCreate("key", req, treq)
	if !created || fresh == run {
		t.Fatal("evicted key did not create a fresh run")
	}
}

func TestRegistryEvictionIsLazyToo(t *testing.T) {
	// Lookups expire the run they touch on their own — eviction must not
	// depend on the janitor having fired.
	const ttl = time.Minute
	reg, clk := newTestRegistry(ttl)
	req, treq := testReq(1)
	run, _ := reg.GetOrCreate("key", req, treq)
	run.finish(StateDone, nil, "", clk.now())
	clk.advance(2 * ttl)
	if _, ok := reg.Get(run.ID); ok {
		t.Fatal("Get did not sweep the expired run")
	}
}

func TestRegistryFailedRunsDoNotDedup(t *testing.T) {
	reg, clk := newTestRegistry(time.Minute)
	req, treq := testReq(1)
	run, _ := reg.GetOrCreate("key", req, treq)
	run.finish(StateFailed, nil, "boom", clk.now())
	retry, created := reg.GetOrCreate("key", req, treq)
	if !created || retry == run {
		t.Fatal("failed run absorbed a resubmission")
	}
	if reg.Len() < 1 {
		t.Fatal("retry missing from registry")
	}
}

func TestRegistryZeroTTLRetainsForever(t *testing.T) {
	reg, clk := newTestRegistry(0)
	req, treq := testReq(1)
	run, _ := reg.GetOrCreate("key", req, treq)
	run.finish(StateDone, nil, "", clk.now())
	clk.advance(1000 * time.Hour)
	reg.Sweep()
	if _, ok := reg.Get(run.ID); !ok {
		t.Fatal("ttl ≤ 0 must retain forever")
	}
}

// registryModel drives a Registry (through the real list handler) beside a
// reference map keyed by sequence number; what the daemon lists must always
// be the reference's retained set in ascending order.
type registryModel struct {
	t    *testing.T
	srv  *Server
	reg  *Registry
	clk  *fakeClock
	rnd  *rand.Rand
	runs map[int]*Run // every run the registry may still hold, by seq
	keys int
}

const modelTTL = time.Minute

func newRegistryModel(t *testing.T, seed uint64) *registryModel {
	mgr := NewManager(Options{TTL: modelTTL, Scales: map[string]exper.Config{"quick": tinyConfig()}})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	mgr.reg.now = clk.now
	return &registryModel{
		t: t, srv: NewServer(mgr), reg: mgr.reg, clk: clk,
		rnd: rand.New(rand.NewPCG(seed, 14)), runs: map[int]*Run{},
	}
}

// retained returns the reference listing: unexpired runs in state (any when
// empty), ascending by seq. Expired runs leave the reference for good — the
// clock only moves forward.
func (m *registryModel) retained(state State) []string {
	runs := m.retainedRuns(state)
	ids := make([]string, len(runs))
	for i, r := range runs {
		ids[i] = r.ID
	}
	return ids
}

func (m *registryModel) retainedRuns(state State) []*Run {
	cutoff := m.clk.now().Add(-modelTTL)
	var seqs []int
	for seq, r := range m.runs {
		if fin := r.FinishedAt(); !fin.IsZero() && fin.Before(cutoff) {
			delete(m.runs, seq)
		} else if state == "" || r.State() == state {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	runs := make([]*Run, len(seqs))
	for i, seq := range seqs {
		runs[i] = m.runs[seq]
	}
	return runs
}

func (m *registryModel) pick(ok func(*Run) bool) *Run {
	var seqs []int
	for seq, r := range m.runs {
		if ok(r) {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) == 0 {
		return nil
	}
	sort.Ints(seqs) // map order must not leak into the seeded sequence
	return m.runs[seqs[m.rnd.IntN(len(seqs))]]
}

func (m *registryModel) nextKey() string {
	m.keys++
	return fmt.Sprintf("key-%d", m.keys)
}

// step applies one random mutation.
func (m *registryModel) step() {
	req, treq := testReq(1)
	switch op := m.rnd.IntN(10); {
	case op < 4: // create
		r, created := m.reg.GetOrCreate(m.nextKey(), req, treq)
		if !created {
			m.t.Fatal("fresh key did not create a run")
		}
		for seq := range m.runs {
			if seq >= r.seq {
				m.t.Fatalf("created %s at or below retained seq %d", r.ID, seq)
			}
		}
		m.runs[r.seq] = r
	case op < 7: // advance a run along the FSM
		if r := m.pick(func(r *Run) bool { return !r.State().Terminal() }); r != nil {
			if r.State() == StateQueued && m.rnd.IntN(2) == 0 {
				r.start(m.clk.now())
			} else {
				r.finish([]State{StateDone, StateDone, StateFailed, StateCancelled}[m.rnd.IntN(4)], nil, "", m.clk.now())
			}
		}
	case op < 8: // clock
		m.clk.advance(time.Duration(m.rnd.Int64N(int64(modelTTL / 2))))
	case op < 9: // remove
		if r := m.pick(func(*Run) bool { return true }); r != nil {
			m.reg.Remove(r)
			delete(m.runs, r.seq)
		}
	default: // restore into a gap or past the counter
		top := 0
		for seq := range m.runs {
			top = max(top, seq)
		}
		seq := 1 + m.rnd.IntN(top+3)
		if _, taken := m.runs[seq]; taken {
			return
		}
		r := newRun(fmt.Sprintf("run-%06d", seq), m.nextKey(), req, treq, m.clk.now())
		if m.rnd.IntN(2) == 0 {
			r.finish(StateDone, nil, "", m.clk.now())
		}
		m.reg.Restore(r)
		m.runs[seq] = r
	}
}

// list pages through GET /v1/runs, calling between (when non-nil) after
// every page that has a successor; a run listed out of order (or twice) fails
// on the spot.
func (m *registryModel) list(state State, limit int, between func()) []string {
	var ids []string
	path := fmt.Sprintf("/v1/runs?limit=%d&state=%s", limit, state)
	for cursor := ""; ; {
		rec := httptest.NewRecorder()
		m.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path+cursor, nil))
		var page client.RunPage
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil || rec.Code != http.StatusOK {
			m.t.Fatalf("list %s%s: status %d, %v", path, cursor, rec.Code, err)
		}
		if len(page.Runs) > limit || (page.NextCursor != "" && len(page.Runs) != limit) {
			m.t.Fatalf("page of %d with limit %d, next=%q", len(page.Runs), limit, page.NextCursor)
		}
		for _, it := range page.Runs {
			if state != "" && it.State != string(state) {
				m.t.Fatalf("%s listed under state=%s as %s", it.ID, state, it.State)
			}
			if len(ids) > 0 && runSeq(it.ID) <= runSeq(ids[len(ids)-1]) {
				m.t.Fatalf("state=%q limit=%d: %s listed after %s", state, limit, it.ID, ids[len(ids)-1])
			}
			ids = append(ids, it.ID)
		}
		if page.NextCursor == "" {
			return ids
		}
		cursor = "&cursor=" + page.NextCursor
		if between != nil {
			between()
		}
	}
}

var modelStates = []State{"", StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}

// TestRegistryPagesMatchModel: seeded random interleavings of create /
// finish / clock-advance / Remove / Restore. With the registry at rest, the
// concatenated pages equal the reference's retained set in order for every
// state filter and page size; with mutations between pages, the listing
// still never repeats or reorders a run, and never skips one that matched
// from the first page to the last.
func TestRegistryPagesMatchModel(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			m := newRegistryModel(t, seed)
			for round := 0; round < 30; round++ {
				for i := 0; i < 25; i++ {
					m.step()
				}
				for _, state := range modelStates {
					for _, limit := range []int{1, 20, 1000} {
						want := m.retained(state)
						if got := m.list(state, limit, nil); !slices.Equal(got, want) {
							t.Fatalf("round %d state=%q limit=%d:\n got %v\nwant %v", round, state, limit, got, want)
						}
						before := m.retainedRuns(state)
						budget := 8 // bounded, or limit=1 pages would breed runs faster than they list them
						got := m.list(state, limit, func() {
							if budget--; budget >= 0 {
								m.step()
							}
						})
						after := m.retainedRuns(state)
						for _, r := range before { // states only move forward: matching at both ends is matching throughout
							if slices.Contains(after, r) && !slices.Contains(got, r.ID) {
								t.Fatalf("state=%q limit=%d: %s matched throughout but was skipped", state, limit, r.ID)
							}
						}
					}
				}
				// The ID index agrees with the reference too.
				for _, id := range m.retained("") {
					if r, ok := m.reg.Get(id); !ok || r.ID != id {
						t.Fatalf("Get(%s) = %v, %v", id, r, ok)
					}
				}
				m.reg.Sweep()
				if got, want := m.reg.Len(), len(m.retained("")); got != want {
					t.Fatalf("round %d: Len after Sweep = %d, reference holds %d", round, got, want)
				}
			}
		})
	}
}

// TestRegistryIDsPastOneMillion: "run-1000000" < "run-999999" as strings, so
// the order and the cursor are the parsed sequence number, never the ID
// text.
func TestRegistryIDsPastOneMillion(t *testing.T) {
	m := newRegistryModel(t, 1)
	req, treq := testReq(1)
	old := newRun("run-999998", "key-old", req, treq, m.clk.now())
	m.reg.Restore(old)
	want := []string{old.ID}
	for i := 0; i < 4; i++ {
		r, _ := m.reg.GetOrCreate(m.nextKey(), req, treq)
		want = append(want, r.ID)
	}
	if want[1] != "run-999999" || want[2] != "run-1000000" || want[4] != "run-1000002" {
		t.Fatalf("IDs across the boundary: %v", want)
	}
	for _, limit := range []int{1, 2, 100} {
		if got := m.list("", limit, nil); !slices.Equal(got, want) {
			t.Errorf("limit=%d: got %v, want %v", limit, got, want)
		}
	}
	for _, id := range want {
		if r, ok := m.reg.Get(id); !ok || r.ID != id {
			t.Errorf("Get(%s) = %v, %v", id, r, ok)
		}
	}
	// A recovered run slots in by number, below the seven-digit IDs.
	m.reg.Restore(newRun("run-000007", "key-7", req, treq, m.clk.now()))
	if got := m.list("", 2, nil); !slices.Equal(got, append([]string{"run-000007"}, want...)) {
		t.Errorf("after restoring run-000007: %v", got)
	}
}

// TestListCostIndependentOfHistory pins the scaling claim: a filtered
// 20-row page over 10 000 retained runs allocates what it does over 100 —
// the same count (exact without the race detector, whose sync.Pool sheds the
// JSON encoder's buffers at random) and the same bytes — and takes no more
// than twice as long. Both registries are built before any timing and the
// two pages are timed alternately, so a slow phase of a shared host lands
// on both medians rather than on one.
func TestListCostIndependentOfHistory(t *testing.T) {
	type page struct {
		get           func()
		allocs, bytes float64
		ds            []time.Duration
	}
	const reps = 301
	newPage := func(n int) *page {
		m := newRegistryModel(t, 1)
		req, treq := testReq(1)
		for i := 0; i < n; i++ {
			r, _ := m.reg.GetOrCreate(m.nextKey(), req, treq)
			r.finish(StateDone, nil, "", m.clk.now())
		}
		p := &page{ds: make([]time.Duration, reps)}
		p.get = func() {
			rec := httptest.NewRecorder()
			m.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs?state=done&limit=20", nil))
			if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "next_cursor") {
				t.Fatalf("list over %d runs: status %d", n, rec.Code)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.allocs = testing.AllocsPerRun(reps-1, p.get) // one warm-up call + reps-1 measured
		runtime.ReadMemStats(&after)
		p.bytes = float64(after.TotalAlloc-before.TotalAlloc) / reps
		return p
	}
	small, big := newPage(100), newPage(10000)
	for i := 0; i < reps; i++ {
		for _, p := range []*page{small, big} {
			start := time.Now()
			p.get()
			p.ds[i] = time.Since(start)
		}
	}
	median := func(ds []time.Duration) time.Duration {
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	if big.allocs != small.allocs && !raceEnabled {
		t.Errorf("allocs/page: %v over 100 runs, %v over 10 000", small.allocs, big.allocs)
	}
	if big.bytes > 1.1*small.bytes {
		t.Errorf("bytes/page: %.0f over 100 runs, %.0f over 10 000", small.bytes, big.bytes)
	}
	if b, s := median(big.ds), median(small.ds); b > 2*s {
		t.Errorf("page over 10 000 runs took %v, over 100 took %v (> 2×)", b, s)
	}
}
