package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// pruneStore builds a store holding n tiny banks with strictly increasing
// mtimes (backdated so LRU order is unambiguous regardless of filesystem
// timestamp granularity). Returns the store and the keys oldest-first.
func pruneStore(t *testing.T, n int) (*BankStore, []string) {
	t.Helper()
	store, err := NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pop := goldenImagePop(t)
	opts := DefaultBuildOptions()
	opts.NumConfigs = 1
	opts.MaxRounds = 3
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		b, err := BuildBank(pop, opts, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = fmt.Sprintf("bank%02d", i)
		if err := store.Put(keys[i], b); err != nil {
			t.Fatal(err)
		}
		mtime := time.Now().Add(time.Duration(i-n) * time.Hour)
		if err := os.Chtimes(store.Path(keys[i]), mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	return store, keys
}

func storeSize(t *testing.T, s *BankStore) int64 {
	t.Helper()
	entries, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		total += e.Bytes
	}
	return total
}

// TestPruneEvictsOldestFirst pins the LRU-by-mtime policy and the evicted
// stat: pruning to roughly half the cache keeps the newest entries and
// removes exactly the oldest ones.
func TestPruneEvictsOldestFirst(t *testing.T) {
	store, keys := pruneStore(t, 4)
	total := storeSize(t, store)
	entries, _ := store.Entries()
	per := total / int64(len(entries))

	evicted, freed, err := store.Prune(total - per) // must drop exactly one
	if err != nil {
		t.Fatal(err)
	}
	if evicted < 1 {
		t.Fatalf("evicted = %d, want >= 1", evicted)
	}
	if freed <= 0 {
		t.Fatalf("freed = %d, want > 0", freed)
	}
	if got := store.Stats().Evicted; got != int64(evicted) {
		t.Errorf("Evicted stat = %d, want %d", got, evicted)
	}
	// The oldest entries go first; the newest must survive.
	if _, err := os.Stat(store.Path(keys[0])); !os.IsNotExist(err) {
		t.Error("oldest entry survived a prune that evicted entries")
	}
	if _, err := os.Stat(store.Path(keys[len(keys)-1])); err != nil {
		t.Errorf("newest entry was pruned: %v", err)
	}
	if got := storeSize(t, store); got > total-per {
		t.Errorf("size after prune = %d, want <= %d", got, total-per)
	}
}

// TestPruneZeroRemovesEverything: a non-positive bound empties the cache.
func TestPruneZeroRemovesEverything(t *testing.T) {
	store, _ := pruneStore(t, 3)
	evicted, _, err := store.Prune(0)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 3 {
		t.Fatalf("evicted = %d, want 3", evicted)
	}
	if entries, _ := store.Entries(); len(entries) != 0 {
		t.Fatalf("%d entries survived Prune(0)", len(entries))
	}
}

// TestPruneUnderBoundIsNoop: a cache already within budget loses nothing.
func TestPruneUnderBoundIsNoop(t *testing.T) {
	store, _ := pruneStore(t, 2)
	total := storeSize(t, store)
	evicted, freed, err := store.Prune(total + 1)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 0 || freed != 0 {
		t.Fatalf("Prune over budget evicted %d entries (%d bytes)", evicted, freed)
	}
}

// TestPruneRemovesStaleTemps: a writer killed between creating its temp file
// and renaming it leaves the temp behind, outside every entry count. Prune
// removes one older than an hour and leaves a fresh one, which may be a
// write in flight.
func TestPruneRemovesStaleTemps(t *testing.T) {
	store, _ := pruneStore(t, 1)
	stale := filepath.Join(store.Dir(), ".banktmp-stale")
	fresh := filepath.Join(store.Dir(), ".banktmp-fresh")
	for _, name := range []string{stale, fresh} {
		if err := os.WriteFile(name, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Prune(storeSize(t, store) + 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("a temp file two hours old survived Prune")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("Prune removed a fresh temp file: %v", err)
	}
}

// TestOpenRemovesStaleTemps: a store with no size bound never prunes, so
// opening it sweeps a killed writer's temp files: the two-hour-old one goes,
// the fresh one stays.
func TestOpenRemovesStaleTemps(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".banktmp-stale")
	fresh := filepath.Join(dir, ".banktmp-fresh")
	for _, name := range []string{stale, fresh} {
		if err := os.WriteFile(name, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := NewBankStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("a temp file two hours old survived NewBankStore")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("NewBankStore removed a fresh temp file: %v", err)
	}
}

// TestGetRefreshesLRU: reading an old entry must move it to the back of the
// eviction order — that is what makes mtime order an LRU, not a FIFO.
func TestGetRefreshesLRU(t *testing.T) {
	store, keys := pruneStore(t, 3)
	if b, err := store.Get(keys[0]); err != nil || b == nil {
		t.Fatalf("Get(%s) = %v, %v", keys[0], b, err)
	}
	total := storeSize(t, store)
	entries, _ := store.Entries()
	per := total / int64(len(entries))
	if _, _, err := store.Prune(total - per); err != nil {
		t.Fatal(err)
	}
	// keys[0] was just read, so keys[1] is now the coldest.
	if _, err := os.Stat(store.Path(keys[0])); err != nil {
		t.Error("recently read entry was pruned (mtime not refreshed on Get)")
	}
	if _, err := os.Stat(store.Path(keys[1])); !os.IsNotExist(err) {
		t.Error("coldest unread entry survived")
	}
}

// TestPutAutoPrunes: with SetMaxBytes, the cache self-bounds on writes and
// a nil store stays inert.
func TestPutAutoPrunes(t *testing.T) {
	store, _ := pruneStore(t, 2)
	total := storeSize(t, store)
	entries, _ := store.Entries()
	per := total / int64(len(entries))
	store.SetMaxBytes(2 * per)

	pop := goldenImagePop(t)
	opts := DefaultBuildOptions()
	opts.NumConfigs = 1
	opts.MaxRounds = 3
	b, err := BuildBank(pop, opts, 99)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("fresh", b); err != nil {
		t.Fatal(err)
	}
	if got := storeSize(t, store); got > 2*per+per/2 {
		t.Errorf("size after auto-pruning Put = %d, want about %d", got, 2*per)
	}
	if _, err := os.Stat(store.Path("fresh")); err != nil {
		t.Errorf("freshly written entry was pruned: %v", err)
	}

	var nilStore *BankStore
	nilStore.SetMaxBytes(1) // must not panic
	if n, _, err := nilStore.Prune(1); n != 0 || err != nil {
		t.Errorf("nil store Prune = %d, %v", n, err)
	}
}
