package core

import (
	"context"
	"encoding/gob"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noisyeval/internal/core/bankseg"
	"noisyeval/internal/data"
	"noisyeval/internal/rng"
)

func storeBank(t *testing.T) *Bank {
	t.Helper()
	b, _ := tinyBank(t)
	return b
}

func TestBankKeyStableAndSensitive(t *testing.T) {
	spec := tinySpec()
	opts := tinyBuildOptions()

	base := BankKey(spec, opts, 7)
	if base != BankKey(spec, opts, 7) {
		t.Fatal("key not deterministic")
	}

	// Workers must not affect the key: bank content is independent of
	// build parallelism (TestBuildBankDeterministicAcrossParallelism).
	par := opts
	par.Workers = 8
	if BankKey(spec, par, 7) != base {
		t.Error("worker count changed the key")
	}

	// Normalization must be applied before hashing: the zero Eta defaults
	// to 3, so both spellings name the same bank.
	norm := opts
	norm.Eta = 0
	if opts.Eta == 3 && BankKey(spec, norm, 7) != base {
		t.Error("normalized and explicit defaults hash differently")
	}

	// Every content-bearing input must perturb the key.
	perturbed := map[string]string{}
	seed := BankKey(spec, opts, 8)
	perturbed["seed"] = seed
	oc := opts
	oc.NumConfigs++
	perturbed["numconfigs"] = BankKey(spec, oc, 7)
	or := opts
	or.MaxRounds++
	perturbed["maxrounds"] = BankKey(spec, or, 7)
	op := opts
	op.Partitions = []float64{1}
	perturbed["partitions"] = BankKey(spec, op, 7)
	osp := opts
	osp.Space.ServerLRMax *= 2
	perturbed["space"] = BankKey(spec, osp, 7)
	opool := opts
	opool.Configs = osp.Space.SampleN(3, rng.New(2))
	perturbed["pool"] = BankKey(spec, opool, 7)
	sp := spec
	sp.EvalClients++
	perturbed["spec"] = BankKey(sp, opts, 7)
	for field, key := range perturbed {
		if key == base {
			t.Errorf("changing %s did not change the key", field)
		}
	}
}

// Content addresses recorded on the explicit-bytes fingerprints. They are
// literals on purpose: a fingerprint that depended on process state (gob's
// process-global type IDs did) would give one population or bank different
// keys in different processes, and only a pinned value catches that.
const (
	goldenTinyPopFingerprint  = "1320a93d7e2000ed18c83fe4383736aaa0ccc3de04235edb15e78123a6c9a8d0"
	goldenTextPopFingerprint  = "52c72832457164a0f8686ebf6a04082eae8960060d6edc9b186a1450227f1623"
	goldenTinyBankKey         = "a4bf2b3ea965a7921a6c411b93da495885d0dc8f6c4eb0af98fae337701d90eb"
	goldenTinyBankFingerprint = "2d4e7e29206132e6f5ddf7f42b2abcf8504b7abf7670af10cc3567d3b6e2616e"
)

// TestFingerprintsIgnoreProcessState pins PopulationFingerprint,
// BankKeyForPopulation and BankFingerprint to literal values, computed after
// gob has encoded an unrelated type — which shifted every type ID of the
// gob-based fingerprints, so a process that had used gob first (cmd/figures
// -bank, cmd/fedtune) missed the cache entries cmd/bank filled.
func TestFingerprintsIgnoreProcessState(t *testing.T) {
	unrelated := struct {
		Name  string
		Vals  []float64
		Index map[string]int
	}{"unrelated", []float64{1, 2}, map[string]int{"a": 1}}
	if err := gob.NewEncoder(io.Discard).Encode(unrelated); err != nil {
		t.Fatal(err)
	}
	b, pop := tinyBank(t)
	for name, c := range map[string]struct{ got, want string }{
		"image population": {PopulationFingerprint(pop), goldenTinyPopFingerprint},
		"text population":  {PopulationFingerprint(goldenTextPop(t)), goldenTextPopFingerprint},
		"bank key":         {BankKeyForPopulation(pop, tinyBuildOptions(), 7), goldenTinyBankKey},
		"bank":             {BankFingerprint(b), goldenTinyBankFingerprint},
	} {
		if c.got != c.want {
			t.Errorf("%s fingerprint = %s, want %s", name, c.got, c.want)
		}
	}
	path := filepath.Join(t.TempDir(), "tiny.bank")
	if err := SaveBankV4(b, path); err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := OpenBankMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if got := BankFingerprint(mapped); got != goldenTinyBankFingerprint {
		t.Errorf("mapped bank fingerprint = %s, want %s", got, goldenTinyBankFingerprint)
	}
}

func TestBankKeyDistinguishesPopulations(t *testing.T) {
	// Two populations generated from the SAME spec but different seeds hold
	// different client data; their pop-bound keys must differ even though
	// BankKey(spec, opts, seed) is identical.
	spec := tinySpec()
	opts := tinyBuildOptions()
	popA := data.MustGenerate(spec, rng.New(1))
	popB := data.MustGenerate(spec, rng.New(2))
	keyA := BankKeyForPopulation(popA, opts, 7)
	keyB := BankKeyForPopulation(popB, opts, 7)
	if keyA == keyB {
		t.Error("different populations collide on one cache key")
	}
	if keyA != BankKeyForPopulation(popA, opts, 7) {
		t.Error("population key not deterministic")
	}
	// Regenerating the same population yields the same key (content hash,
	// not pointer identity).
	popA2 := data.MustGenerate(spec, rng.New(1))
	if keyA != BankKeyForPopulation(popA2, opts, 7) {
		t.Error("identical population content hashes differently")
	}
}

func TestBankStoreMissThenHit(t *testing.T) {
	b := storeBank(t)
	store, err := NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := BankKey(tinySpec(), tinyBuildOptions(), 7)

	if got, err := store.Get(key); err != nil || got != nil {
		t.Fatalf("empty store Get = %v, %v; want miss", got, err)
	}
	if err := store.Put(key, b); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(key)
	if err != nil || got == nil {
		t.Fatalf("Get after Put = %v, %v", got, err)
	}
	if got.SpecName != b.SpecName || len(got.Configs) != len(b.Configs) {
		t.Error("round-tripped bank differs")
	}
	if d := countDiff(&got.Errs, &b.Errs); d != "" {
		t.Fatalf("round-tripped errors differ: %s", d)
	}
	st := store.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestBankStoreCorruptEntryEvicted(t *testing.T) {
	b := storeBank(t)
	store, err := NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := BankKey(tinySpec(), tinyBuildOptions(), 7)
	if err := store.Put(key, b); err != nil {
		t.Fatal(err)
	}

	// Truncate the entry: not valid gzip+gob any more.
	if err := os.WriteFile(store.Path(key), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(key)
	if err != nil || got != nil {
		t.Fatalf("corrupt Get = %v, %v; want clean miss", got, err)
	}
	if _, err := os.Stat(store.Path(key)); !os.IsNotExist(err) {
		t.Error("corrupt entry not evicted")
	}
	if st := store.Stats(); st.Evicted != 1 {
		t.Errorf("evicted = %d, want 1", st.Evicted)
	}

	// GetOrBuild recovers by rebuilding and re-storing.
	builds := 0
	got, err = store.GetOrBuild(key, func() (*Bank, error) {
		builds++
		return b, nil
	})
	if err != nil || got == nil || builds != 1 {
		t.Fatalf("rebuild after corruption: bank=%v err=%v builds=%d", got != nil, err, builds)
	}
	if got, err = store.Get(key); err != nil || got == nil {
		t.Fatal("entry not re-stored after rebuild")
	}
}

func TestBankStoreGetOrBuildSingleflight(t *testing.T) {
	b := storeBank(t)
	store, err := NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := BankKey(tinySpec(), tinyBuildOptions(), 7)

	var builds atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := store.GetOrBuild(key, func() (*Bank, error) {
				builds.Add(1)
				<-release // hold the build so the others must coalesce
				return b, nil
			})
			if err != nil || got == nil {
				t.Errorf("GetOrBuild = %v, %v", got != nil, err)
			}
		}()
	}
	// Wait for the builder to enter (it then blocks on release, so every
	// other goroutine either coalesces on it or, arriving after the write,
	// hits disk — neither path builds again).
	for builds.Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times, want 1", n)
	}
	// A later call hits disk without building.
	got, err := store.GetOrBuild(key, func() (*Bank, error) {
		t.Error("unexpected rebuild")
		return nil, nil
	})
	if err != nil || got == nil {
		t.Fatalf("warm GetOrBuild = %v, %v", got != nil, err)
	}
}

func TestBankStorePutIsAtomic(t *testing.T) {
	b := storeBank(t)
	dir := t.TempDir()
	store, err := NewBankStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("k", b); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0] != store.Path("k") {
		t.Errorf("cache dir = %v, want only the final entry", entries)
	}
}

func TestBuildBankCachedHitSkipsTraining(t *testing.T) {
	pop := tinyPopCache
	if pop == nil {
		_, pop = tinyBank(t)
	}
	opts := tinyBuildOptions()
	opts.NumConfigs = 3
	opts.MaxRounds = 3
	store, err := NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	b1, hit1, err := BuildBankCached(context.Background(), store, pop, opts, 11)
	if err != nil || hit1 {
		t.Fatalf("first build: hit=%v err=%v", hit1, err)
	}
	b2, hit2, err := BuildBankCached(context.Background(), store, pop, opts, 11)
	if err != nil || !hit2 {
		t.Fatalf("second build: hit=%v err=%v", hit2, err)
	}
	if len(b1.Configs) != len(b2.Configs) || b1.Seed != b2.Seed {
		t.Error("cached bank differs from built bank")
	}
	// Nil store degrades to a plain build.
	_, hit3, err := BuildBankCached(context.Background(), nil, pop, opts, 11)
	if err != nil || hit3 {
		t.Fatalf("nil store: hit=%v err=%v", hit3, err)
	}
}

func TestBankStoreMappedMode(t *testing.T) {
	b := storeBank(t)
	st, err := NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if err := st.Put("aaaa", b); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("aaaa")
	if err != nil || got == nil {
		t.Fatalf("mapped get: %v, %v", got, err)
	}
	if hashBankContent(got) != hashBankContent(b) {
		t.Fatal("mapped entry content differs")
	}
	// The entry is pinned: repeated Gets serve the same bank.
	again, err := st.Get("aaaa")
	if err != nil || again != got {
		t.Fatal("mapped entry not pinned across Gets")
	}

	// An entry another process wrote (no Put here) maps on first Get.
	if err := SaveBankV4(b, st.Path("bbbb")); err != nil {
		t.Fatal(err)
	}
	foreign, err := st.Get("bbbb")
	if err != nil || foreign == nil || hashBankContent(foreign) != hashBankContent(b) {
		t.Fatalf("foreign entry under mapped mode: %v, %v", foreign, err)
	}

	// Prune never unlinks mapped entries, however tight the bound; the
	// cold (never-opened) entry goes first.
	if err := SaveBankV4(b, st.Path("cold")); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	os.Chtimes(st.Path("cold"), old, old)
	if _, _, err := st.Prune(1); err != nil {
		t.Fatal(err)
	}
	if st.Has("cold") {
		t.Fatal("prune spared the unpinned cold entry")
	}
	if !st.Has("aaaa") || !st.Has("bbbb") {
		t.Fatal("prune unlinked a mapped (pinned) entry")
	}

	// The mapped bank stays readable after pruning around it.
	if hashBankContent(got) != hashBankContent(b) {
		t.Fatal("mapped bank content changed after prune")
	}
}

func TestBankStoreCorruptSegmentCounted(t *testing.T) {
	b := storeBank(t)
	st, err := NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := st.Path("cc")
	if err := SaveBankV4(b, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[bankseg.FileHeaderLen+bankseg.SegmentHeaderLen+8] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("cc")
	if err != nil || got != nil {
		t.Fatalf("corrupt entry must read as a miss: %v, %v", got, err)
	}
	stats := st.Stats()
	if stats.CorruptSegment != 1 {
		t.Errorf("CorruptSegment = %d, want 1", stats.CorruptSegment)
	}
	if stats.Evicted != 1 {
		t.Errorf("Evicted = %d, want 1", stats.Evicted)
	}
	if stats.StaleFormat != 0 {
		t.Errorf("corruption misclassified as stale format")
	}
	if st.Has("cc") {
		t.Error("corrupt entry not evicted")
	}
}

// TestBankStoreSilentByDefault pins the logger of a store nobody configured:
// NewBankStore installs a discard logger, so evicting a corrupt entry and
// pruning the cache — both of which log — neither panic nor write.
func TestBankStoreSilentByDefault(t *testing.T) {
	b := storeBank(t)
	st, err := NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if st.Log.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("a store with no logger configured logs")
	}
	path := st.Path("cc")
	if err := SaveBankV4(b, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[bankseg.FileHeaderLen+bankseg.SegmentHeaderLen+8] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get("cc"); err != nil || got != nil {
		t.Fatalf("corrupt entry must read as a miss: %v, %v", got, err)
	}
	if stats := st.Stats(); stats.CorruptSegment != 1 {
		t.Errorf("CorruptSegment = %d, want 1", stats.CorruptSegment)
	}

	if err := st.Put("dd", b); err != nil {
		t.Fatal(err)
	}
	BoundCache(st, 1)
	if st.Has("dd") {
		t.Error("BoundCache kept an entry over a 1-byte bound")
	}
}
