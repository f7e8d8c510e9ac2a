package dist

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/data"
	"noisyeval/internal/rng"
)

// testPop returns the miniature population the dist tests share.
func testPop(t testing.TB) *data.Population {
	t.Helper()
	spec := data.CIFAR10Like().Scaled(0.06, 0)
	spec.MeanExamples, spec.MinExamples, spec.MaxExamples = 20, 15, 25
	pop, err := data.Generate(spec, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// testOpts returns a bank build small enough to shard in milliseconds.
func testOpts() core.BuildOptions {
	opts := core.DefaultBuildOptions()
	opts.NumConfigs = 4
	opts.MaxRounds = 9
	opts.Partitions = []float64{0.5}
	return opts
}

// newTestCluster boots a coordinator behind an httptest server.
func newTestCluster(t *testing.T, opts CoordinatorOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	if opts.Store == nil {
		store, err := core.NewBankStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = store
	}
	coord := NewCoordinator(opts)
	mux := http.NewServeMux()
	coord.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		coord.Close()
	})
	return coord, ts
}

// startWorker runs a real lease-loop worker against the cluster until the
// test ends.
func startWorker(t *testing.T, url, name string) *Worker {
	t.Helper()
	w := NewWorker(WorkerOptions{Coordinator: url, Name: name, Poll: 5 * time.Millisecond, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return w
}

// TestClusterBuildByteIdentical is the tentpole acceptance test: a bank
// built by two real workers over HTTP — one config per shard, populations
// fetched by content address, shards gob+gzip round-tripped — must be
// byte-identical to a single-process BuildBank, and must land in the store
// so the warm path never trains again.
func TestClusterBuildByteIdentical(t *testing.T) {
	pop, opts, seed := testPop(t), testOpts(), uint64(7)
	coord, ts := newTestCluster(t, CoordinatorOptions{ShardConfigs: 1})
	w1 := startWorker(t, ts.URL, "w1")
	w2 := startWorker(t, ts.URL, "w2")

	builder := &Builder{Store: coord.Store(), Coord: coord}
	bank, cached, err := builder.BuildBank(context.Background(), pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("cold build reported cached")
	}

	local, err := core.BuildBank(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := core.BankFingerprint(bank), core.BankFingerprint(local); got != want {
		t.Fatalf("cluster-built bank differs from local build:\n got %s\nwant %s", got, want)
	}

	// The build finishes inside the last worker's POST handler, before that
	// worker's counter increments — poll briefly for the counters to settle.
	var built int64
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if built = w1.Counters().ShardsBuilt + w2.Counters().ShardsBuilt; built == int64(opts.NumConfigs) {
			break
		}
	}
	if built != int64(opts.NumConfigs) {
		t.Errorf("workers built %d shards, want %d", built, opts.NumConfigs)
	}
	st := coord.Stats()
	if st.BuildsCompleted != 1 || st.ShardsCompleted != int64(opts.NumConfigs) {
		t.Errorf("coordinator stats = %+v, want 1 build / %d shards", st, opts.NumConfigs)
	}

	// Warm path: the assembled bank was persisted; a second build is a pure
	// store hit — no shards scheduled, no training anywhere.
	bank2, cached2, err := builder.BuildBank(context.Background(), pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !cached2 {
		t.Error("second build of a persisted bank was not a cache hit")
	}
	if core.BankFingerprint(bank2) != core.BankFingerprint(local) {
		t.Error("warm bank differs from local build")
	}
	if got := coord.Stats().BuildsStarted; got != 1 {
		t.Errorf("builds started = %d after warm rerun, want 1", got)
	}
}

// TestPeerReadThrough verifies the remote read-through tier: a cold daemon
// pointed at a warm peer pulls the bank over GET /v1/banks/{key}, validates
// it, persists it locally, and never trains.
func TestPeerReadThrough(t *testing.T) {
	pop, opts, seed := testPop(t), testOpts(), uint64(7)

	// Warm peer: a coordinator whose store holds the bank.
	warm, ts := newTestCluster(t, CoordinatorOptions{ShardConfigs: 2, SelfBuild: 1})
	if _, err := warm.BuildSharded(context.Background(), pop, opts, seed); err != nil {
		t.Fatal(err)
	}

	coldStore, err := core.NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := &Builder{
		Store: coldStore,
		Peers: []string{"http://127.0.0.1:1", ts.URL}, // first peer dead: must fail soft
	}
	bank, cached, err := cold.BuildBank(context.Background(), pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("peer fetch not reported as cached (no local training happened)")
	}
	local, err := core.BuildBank(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if core.BankFingerprint(bank) != core.BankFingerprint(local) {
		t.Error("peer-fetched bank differs from local build")
	}
	st := cold.Stats()
	if st.PeerHits != 1 || st.PeerMisses != 1 {
		t.Errorf("builder stats = %+v, want 1 hit / 1 miss", st)
	}
	// Persisted locally: the next build never touches the network.
	key := core.BankKeyForPopulation(pop, opts, seed)
	if b, err := coldStore.Get(key); err != nil || b == nil {
		t.Errorf("peer-fetched bank not persisted locally: %v, %v", b, err)
	}
}

// TestPeerBankAliasMiss: growth moves a bank to a new content address on
// the warm peer, leaving a store alias behind. GET /v1/banks/{key} serves
// through the alias and names the entry actually served (X-Bank-Key); the
// builder's read-through tier must treat the moved bank as a miss — its
// cache key promises an exact config pool — and build the real pool locally.
func TestPeerBankAliasMiss(t *testing.T) {
	pop, opts, seed := testPop(t), testOpts(), uint64(13)
	store, err := core.NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warm, ts := newTestCluster(t, CoordinatorOptions{ShardConfigs: 2, SelfBuild: 1, Store: store})
	if _, err := warm.BuildSharded(context.Background(), pop, opts, seed); err != nil {
		t.Fatal(err)
	}

	// Simulate growth on the peer: a different bank under a new address, an
	// alias at the old address, the old entry pruned.
	key := core.BankKeyForPopulation(pop, opts, seed)
	moved, err := core.BuildBank(pop, opts, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	newKey := core.BankKeyForPopulation(pop, opts, seed+1)
	if err := store.Put(newKey, moved); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(store.Path(key)); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteAlias(key, newKey); err != nil {
		t.Fatal(err)
	}

	// A raw GET through the old key serves the moved bank and says so.
	resp, err := http.Get(ts.URL + "/v1/banks/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alias GET status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Bank-Key"); got != newKey {
		t.Fatalf("X-Bank-Key = %q, want %q", got, newKey)
	}
	img, err := inflateBytes(resp.Body, core.MaxBankImageBytes)
	if err != nil {
		t.Fatal(err)
	}
	served, err := core.DecodeBank(img)
	if err != nil {
		t.Fatal(err)
	}
	if core.BankFingerprint(served) != core.BankFingerprint(moved) {
		t.Error("alias GET served the wrong bank")
	}

	// The builder refuses the substitute and produces the exact pool.
	coldStore, err := core.NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := &Builder{Store: coldStore, Peers: []string{ts.URL}}
	bank, cached, err := cold.BuildBank(context.Background(), pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("moved peer bank was accepted as a cache hit")
	}
	local, err := core.BuildBank(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if core.BankFingerprint(bank) != core.BankFingerprint(local) {
		t.Error("fallback build differs from the exact local build")
	}
	if st := cold.Stats(); st.PeerHits != 0 || st.PeerMisses != 1 {
		t.Errorf("builder stats = %+v, want 0 hits / 1 miss", st)
	}
}

// TestSelfBuildDegradesToLocal: with self-build goroutines and no external
// workers, a cluster-mode build still completes (the operator-safety
// default of noisyevald -cluster).
func TestSelfBuildDegradesToLocal(t *testing.T) {
	pop, opts, seed := testPop(t), testOpts(), uint64(9)
	coord, _ := newTestCluster(t, CoordinatorOptions{ShardConfigs: 2, SelfBuild: 2})
	bank, err := coord.BuildSharded(context.Background(), pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.BuildBank(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if core.BankFingerprint(bank) != core.BankFingerprint(local) {
		t.Error("self-built bank differs from local build")
	}
	if st := coord.Stats(); st.ShardsSelfBuilt != 2 {
		t.Errorf("self-built shards = %d, want 2", st.ShardsSelfBuilt)
	}
}

// TestConcurrentBuildsCoalesce: concurrent BuildSharded calls for one
// content address share one set of shard jobs.
func TestConcurrentBuildsCoalesce(t *testing.T) {
	pop, opts, seed := testPop(t), testOpts(), uint64(3)
	coord, ts := newTestCluster(t, CoordinatorOptions{ShardConfigs: 2})
	startWorker(t, ts.URL, "w1")

	var wg sync.WaitGroup
	banks := make([]*core.Bank, 3)
	for i := range banks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := coord.BuildSharded(context.Background(), pop, opts, seed)
			if err != nil {
				t.Error(err)
				return
			}
			banks[i] = b
		}(i)
	}
	wg.Wait()
	if st := coord.Stats(); st.BuildsStarted != 1 {
		t.Errorf("builds started = %d, want 1 (coalesced)", st.BuildsStarted)
	}
	for i := 1; i < len(banks); i++ {
		if banks[i] != banks[0] {
			t.Error("coalesced builds returned distinct banks")
		}
	}
}

// TestWireRoundTrips pins the wire encodings (gzipped v4 shard image,
// gzipped gob population, gob options).
func TestWireRoundTrips(t *testing.T) {
	pop, opts, seed := testPop(t), testOpts(), uint64(5)
	plan, err := core.NewBuildPlan(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := plan.TrainRange(1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeShard(sh)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeShard(bytesReader(raw), maxShardDecodedBytes)
	if err != nil {
		t.Fatal(err)
	}
	if back.Lo != sh.Lo || back.Hi != sh.Hi {
		t.Errorf("shard round trip drifted: %d-%d vs %d-%d", back.Lo, back.Hi, sh.Lo, sh.Hi)
	}
	if err := back.Errs.CheckShape(sh.Errs.Parts, sh.Errs.Configs, sh.Errs.Checkpoints, sh.Errs.Clients); err != nil {
		t.Errorf("shard round trip drifted: %v", err)
	}
	for i := range sh.Errs.Counts {
		if back.Errs.Counts[i] != sh.Errs.Counts[i] {
			t.Fatalf("shard arena float %d changed in round trip", i)
		}
	}

	praw, err := EncodePopulation(pop)
	if err != nil {
		t.Fatal(err)
	}
	pback, err := DecodePopulation(bytesReader(praw))
	if err != nil {
		t.Fatal(err)
	}
	if core.PopulationFingerprint(pback) != core.PopulationFingerprint(pop) {
		t.Error("population round trip changed the content fingerprint")
	}

	oraw, err := encodeOptions(opts)
	if err != nil {
		t.Fatal(err)
	}
	oback, err := DecodeOptions(oraw)
	if err != nil {
		t.Fatal(err)
	}
	if core.BankKey(pop.Spec, oback, seed) != core.BankKey(pop.Spec, opts, seed) {
		t.Error("options round trip changed the bank key")
	}
}

// bytesReader adapts a byte slice for the decode helpers.
func bytesReader(b []byte) *bytes.Reader { return bytes.NewReader(b) }
