package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"noisyeval/internal/core/bankseg"
	"noisyeval/internal/data"
	"noisyeval/internal/obs"
)

// bankKeyVersion is bumped whenever the set or meaning of the hashed fields
// changes, invalidating all previously cached entries.
// v3: the engine-selection knob left fl.Options and BuildOptions (the batched
// engine is the only one), which changes the hashed %#v image of the options.
// Pure encoding changes do NOT bump the key: the key addresses bank content
// (build inputs), and the on-disk format carries its own version header, so
// a stale-format entry under a current key is detected on load, evicted,
// and rebuilt (StoreStats.StaleFormat).
// v4: PopulationFingerprint hashes explicit little-endian bytes instead of a
// gob stream, whose process-global type IDs gave one population different
// keys in different processes (a process that had gob-encoded another type
// first missed the cache another process filled).
const bankKeyVersion = "bankstore-v4"

// normalizeBuildOptions applies the same defaulting BuildBank performs, so
// that two option values which build identical banks hash identically.
// Workers is zeroed: parallelism does not affect bank content
// (TestBuildBankDeterministicAcrossParallelism).
func normalizeBuildOptions(opts BuildOptions) BuildOptions {
	if opts.Eta < 2 {
		opts.Eta = 3
	}
	if opts.Levels < 1 {
		opts.Levels = 5
	}
	if opts.Train.ClientsPerRound == 0 {
		opts.Train = DefaultBuildOptions().Train
	}
	if err := opts.Space.Validate(); err != nil {
		opts.Space = DefaultBuildOptions().Space
	}
	opts.Workers = 0
	return opts
}

// BankKey returns the content address of the bank BuildBank(pop, opts, seed)
// would produce for a population generated from spec: a hex SHA-256 over the
// dataset spec, the normalized build options (including an explicit config
// pool, if any), and the seed. Construction is deterministic in exactly these
// inputs, so equal keys mean byte-identical bank content.
func BankKey(spec data.Spec, opts BuildOptions, seed uint64) string {
	opts = normalizeBuildOptions(opts)
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", bankKeyVersion)
	fmt.Fprintf(h, "spec %#v\n", spec)
	fmt.Fprintf(h, "numconfigs %d maxrounds %d eta %d levels %d\n",
		opts.NumConfigs, opts.MaxRounds, opts.Eta, opts.Levels)
	fmt.Fprintf(h, "partitions %v\n", opts.Partitions)
	fmt.Fprintf(h, "train %#v\n", opts.Train)
	fmt.Fprintf(h, "space %#v\n", opts.Space)
	fmt.Fprintf(h, "pool %d\n", len(opts.Configs))
	for _, c := range opts.Configs {
		fmt.Fprintf(h, "%#v\n", c)
	}
	fmt.Fprintf(h, "seed %d\n", seed)
	return hex.EncodeToString(h.Sum(nil))
}

// PopulationFingerprint hashes the population's actual content (spec plus
// every client's examples), so cache keys distinguish populations that share
// a Spec but were generated differently (e.g. different generation seeds).
// The content is hashed as explicit little-endian bytes, pool by pool: the
// client count, then per client its ID and example count, then per example
// its features (length, Float64bits), tokens (length, values) and label —
// the same bytes in every process. Cost is one pass over the raw data —
// noise next to training a bank.
func PopulationFingerprint(pop *data.Population) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\nspec %#v\n", bankKeyVersion, pop.Spec)
	var buf []byte
	for _, pool := range [][]*data.Client{pop.Train, pop.Val} {
		buf = appendU64(buf[:0], uint64(len(pool)))
		for _, c := range pool {
			buf = appendI64(buf, int64(c.ID))
			buf = appendU64(buf, uint64(len(c.Examples)))
			for _, ex := range c.Examples {
				buf = appendU64(buf, uint64(len(ex.Features)))
				for _, f := range ex.Features {
					buf = appendF64(buf, f)
				}
				buf = appendU64(buf, uint64(len(ex.Tokens)))
				for _, tok := range ex.Tokens {
					buf = appendI64(buf, int64(tok))
				}
				buf = appendI64(buf, int64(ex.Label))
			}
			h.Write(buf)
			buf = buf[:0]
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BankKeyForPopulation is BankKey bound to a concrete population: it extends
// the spec/options/seed address with the population's content fingerprint.
// BuildBankCached keys on this, so two different populations generated from
// one Spec can never collide on a cache entry.
func BankKeyForPopulation(pop *data.Population, opts BuildOptions, seed uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", BankKey(pop.Spec, opts, seed), PopulationFingerprint(pop))
	return hex.EncodeToString(h.Sum(nil))
}

// StoreStats reports cache-effectiveness counters for one BankStore.
type StoreStats struct {
	Hits    int64 // entries served from disk
	Misses  int64 // lookups that found no (valid) entry
	Builds  int64 // banks built and written through GetOrBuild
	Evicted int64 // entries removed: corrupt or stale on load, or pruned
	// StaleFormat counts evictions whose cause was a format-generation
	// mismatch (a retired encoding, or an entry written by a future build)
	// rather than corruption. Such entries are valid artifacts in a dead
	// encoding; they rebuild transparently and this counter is the only
	// trace. Included in Evicted.
	StaleFormat int64
	// CorruptSegment counts evictions whose cause was located corruption —
	// the decoder identified the failing section or segment (truncation,
	// CRC mismatch; see CorruptError) rather than a stale format. Included
	// in Evicted.
	CorruptSegment int64
}

// BankStore is a content-addressed on-disk bank cache. Entries are bankfmt/v5
// files (SaveBankV4), stored as <dir>/<key>.bank where key comes from
// BankKey. Writes go through a temp file plus fsync plus atomic rename,
// so a crashed or concurrent writer can never leave a partial entry visible;
// corrupt entries (truncation, bit rot) and stale-format entries (a previous
// encoding generation) are detected on load, evicted, and rebuilt. A nil
// *BankStore is valid and behaves as an always-miss cache, so call sites can
// thread an optional store without branching.
type BankStore struct {
	dir string

	// Log receives operational events (stale-format and corrupt-segment
	// evictions, cache prunes) as structured lines, on the same slog
	// pipeline as serve events — one grep finds every eviction in a
	// process. NewBankStore starts it as a discard logger; replace it right
	// after NewBankStore, before concurrent use.
	Log *slog.Logger

	mu       sync.Mutex
	inflight map[string]*storeCall

	maxBytes atomic.Int64 // size bound enforced after each Put (0 = unlimited)

	// mapMu guards the mapped-entry table and the retired mappings.
	mapMu  sync.Mutex
	mapped map[string]*mappedBank
	// retired holds mappings whose key was overwritten by a newer Put.
	// They stay mapped (a reader may still hold the old bank's views) and
	// are only released by Close.
	retired []io.Closer

	hits, misses, builds, evicted, staleFormat, corruptSegment atomic.Int64
}

// mappedBank is one live mmap-served cache entry.
type mappedBank struct {
	bank   *Bank
	closer io.Closer
	bytes  int64 // on-disk (and mapped) size
	zero   bool  // true when actually mmap-backed, false for heap fallback
}

// storeCall deduplicates concurrent GetOrBuild calls for one key
// (singleflight): the first caller builds, the rest wait on done.
type storeCall struct {
	done chan struct{}
	bank *Bank
	err  error
}

// NewBankStore opens (creating if needed) a bank cache rooted at dir.
func NewBankStore(dir string) (*BankStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: bank store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: bank store: %w", err)
	}
	return &BankStore{dir: dir, Log: slog.New(slog.DiscardHandler),
		inflight: map[string]*storeCall{}, mapped: map[string]*mappedBank{}}, nil
}

// Dir returns the cache root.
func (s *BankStore) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Path returns the on-disk location of key's entry.
func (s *BankStore) Path(key string) string {
	return filepath.Join(s.dir, key+".bank")
}

// Has reports whether a non-empty entry for key exists on disk, without
// opening or decoding it. noisyevald's admission control classifies
// submissions as warm or cold with it on the request path, so it must stay
// a single stat. A nil store has nothing.
func (s *BankStore) Has(key string) bool {
	if s == nil {
		return false
	}
	fi, err := os.Stat(s.Path(key))
	return err == nil && fi.Size() > 0
}

// Get returns the cached bank for key, or (nil, nil) on a miss. The first
// Get of a key opens its entry through OpenBankMapped — mmap'd, zero-copy,
// every payload CRC and every count checked — and pins the bank in the
// store until Close: oracle readers hold views into the mapping, so Prune
// never unlinks an opened entry and later Gets serve the same bank.
// Platforms without mmap pin a heap copy instead. A corrupt entry is
// evicted and reported as a miss, never as an error: the caller can always
// rebuild. An entry that merely fails to stat (transient fd/permission
// trouble) is a plain miss — content that can't be read is not evidence of
// corruption, and eviction would destroy an expensive valid artifact.
func (s *BankStore) Get(key string) (*Bank, error) {
	if s == nil {
		return nil, nil
	}
	s.mapMu.Lock()
	defer s.mapMu.Unlock()
	path := s.Path(key)
	// Touching the entry keeps Prune's LRU-by-mtime ordering about use, not
	// just creation (a hot bank must outlive colder, newer ones).
	now := time.Now()
	if e, ok := s.mapped[key]; ok {
		s.hits.Add(1)
		os.Chtimes(path, now, now)
		return e.bank, nil
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		s.misses.Add(1)
		return nil, nil
	}
	b, closer, err := OpenBankMapped(path)
	if err != nil {
		s.evictBroken(key, path, err)
		return nil, nil
	}
	_, heapBacked := closer.(nopCloser)
	s.mapped[key] = &mappedBank{bank: b, closer: closer, bytes: fi.Size(), zero: !heapBacked}
	s.hits.Add(1)
	os.Chtimes(path, now, now)
	return b, nil
}

// evictBroken drops an entry that failed to decode and classifies the
// failure: stale formats and located corruption each get their own stat and
// a log line (a stale format is an expected lifecycle event; corruption
// names the failing segment/offset so bit rot is diagnosable), everything
// else counts only as a generic eviction.
func (s *BankStore) evictBroken(key, path string, err error) {
	os.Remove(path)
	s.evicted.Add(1)
	s.misses.Add(1)
	var ce *CorruptError
	switch {
	case IsStaleBankFormat(err):
		s.staleFormat.Add(1)
		s.Log.Warn("evicting bank cache entry, will rebuild",
			"event", "bank_evict", "reason", "stale_format", "key", key, "err", err)
	case errors.As(err, &ce):
		s.corruptSegment.Add(1)
		s.Log.Warn("evicting bank cache entry, will rebuild",
			"event", "bank_evict", "reason", "corrupt_segment", "key", key, "err", err)
	}
}

// SetMapped does nothing: every Get opens through OpenBankMapped. It stays
// for the benchmark harness (bench/), its only caller.
func (s *BankStore) SetMapped(bool) {}

// SetMappedWarm does nothing: the open's CRC pass touches every page. It
// stays for the benchmark harness (bench/), its only caller.
func (s *BankStore) SetMappedWarm(bool) {}

// MappedStats reports the live mmap-served entries (heap-fallback entries
// are excluded from both counters).
type MappedStats struct {
	Files int64 // entries currently backed by a mapping
	Bytes int64 // total mapped bytes
}

// Mapped returns a snapshot of the store's mapping footprint.
func (s *BankStore) Mapped() MappedStats {
	if s == nil {
		return MappedStats{}
	}
	s.mapMu.Lock()
	defer s.mapMu.Unlock()
	var st MappedStats
	for _, e := range s.mapped {
		if e.zero {
			st.Files++
			st.Bytes += e.bytes
		}
	}
	return st
}

// Close releases every mapping the store holds (live and retired). Call it
// only after all bank readers are done — their error-matrix views point
// into the mappings.
func (s *BankStore) Close() error {
	if s == nil {
		return nil
	}
	s.mapMu.Lock()
	defer s.mapMu.Unlock()
	var first error
	for key, e := range s.mapped {
		if err := e.closer.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.mapped, key)
	}
	for _, c := range s.retired {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.retired = nil
	return first
}

// Put writes the bank under key atomically (SaveBankV4: temp-file + fsync +
// rename), so readers only ever observe complete, durable entries. Any
// previously mapped bank for the key is retired: existing readers keep
// their (old) mapping, new Gets map the new file.
func (s *BankStore) Put(key string, b *Bank) error {
	if s == nil {
		return fmt.Errorf("core: Put on nil bank store")
	}
	if err := SaveBankV4(b, s.Path(key)); err != nil {
		return err
	}
	s.mapMu.Lock()
	if e, ok := s.mapped[key]; ok {
		// The rename replaced the inode, not the mapping: the old mapping
		// stays valid for in-flight readers and is released at Close.
		s.retired = append(s.retired, e.closer)
		delete(s.mapped, key)
	}
	s.mapMu.Unlock()
	if max := s.maxBytes.Load(); max > 0 {
		// Enforce the size bound write-through; the just-written entry has
		// the freshest mtime, so it is pruned last (only when it alone
		// exceeds the bound).
		s.Prune(max)
	}
	return nil
}

// SetMaxBytes bounds the cache's total on-disk size: every Put triggers an
// LRU-by-mtime Prune down to max bytes (0 restores unlimited growth). The
// bound is advisory between writes — a foreign process dropping files into
// the directory is only noticed on the next Put or explicit Prune.
func (s *BankStore) SetMaxBytes(max int64) {
	if s == nil {
		return
	}
	s.maxBytes.Store(max)
}

// staleTempAge is how old an unpublished temp file (bankseg.TempPattern) in
// the store must be before Prune takes it for a killed writer's debris: far
// longer than any bank write takes.
const staleTempAge = time.Hour

// Prune evicts least-recently-used entries (by mtime; Get refreshes it) until
// the cache's total size is at most maxBytes, returning how many entries were
// removed and how many bytes were freed. maxBytes <= 0 removes everything.
// It also removes temp files older than staleTempAge, which no entry names
// and no count includes.
// Evictions count into the store's Evicted stat. Concurrent readers are safe:
// an evicted entry simply misses and rebuilds — the usual content-addressed
// guarantee that pruning can never corrupt, only cool, the cache.
func (s *BankStore) Prune(maxBytes int64) (evicted int, freed int64, err error) {
	if s == nil {
		return 0, 0, nil
	}
	// Glob fails only on a malformed pattern, and the sweep is best effort:
	// a temp that cannot go now is tried again on the next Prune.
	temps, _ := filepath.Glob(filepath.Join(s.dir, bankseg.TempPattern))
	for _, name := range temps {
		if info, err := os.Stat(name); err == nil && time.Since(info.ModTime()) > staleTempAge {
			_ = os.Remove(name)
		}
	}
	// Recency needs full-resolution mtimes: StoreEntry rounds to seconds,
	// which would tie a bank written moments ago with colder same-second
	// neighbors — and Put's write-through prune must never evict the entry
	// it just wrote while an older one survives on a key tiebreak.
	names, err := filepath.Glob(filepath.Join(s.dir, "*.bank"))
	if err != nil {
		return 0, 0, fmt.Errorf("core: bank store prune: %w", err)
	}
	type entry struct {
		path string
		size int64
		mod  time.Time
	}
	var entries []entry
	var total int64
	for _, name := range names {
		info, err := os.Stat(name)
		if err != nil {
			continue // raced with an eviction; skip
		}
		entries = append(entries, entry{path: name, size: info.Size(), mod: info.ModTime()})
		total += info.Size()
	}
	// Oldest mtime first; ties break by path so eviction order is stable.
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mod.Equal(entries[j].mod) {
			return entries[i].mod.Before(entries[j].mod)
		}
		return entries[i].path < entries[j].path
	})
	// Opened entries are pinned: a reader may hold zero-copy views into the
	// file's pages, so the pruner never unlinks them. The bound can
	// therefore overshoot while many banks are open; it re-applies once
	// the store is reopened without them.
	pinned := map[string]bool{}
	s.mapMu.Lock()
	for key := range s.mapped {
		pinned[s.Path(key)] = true
	}
	s.mapMu.Unlock()
	for _, e := range entries {
		if total <= maxBytes {
			break
		}
		if pinned[e.path] {
			continue
		}
		if rmErr := os.Remove(e.path); rmErr != nil {
			if os.IsNotExist(rmErr) {
				total -= e.size // raced with another pruner/evictor
				continue
			}
			return evicted, freed, fmt.Errorf("core: bank store prune: %w", rmErr)
		}
		total -= e.size
		freed += e.size
		evicted++
		s.evicted.Add(1)
	}
	return evicted, freed, nil
}

// GetOrBuild returns the cached bank for key, building and caching it on a
// miss. Concurrent calls for the same key are coalesced: exactly one caller
// runs build, the rest receive its result. Build errors are not cached.
func (s *BankStore) GetOrBuild(key string, build func() (*Bank, error)) (*Bank, error) {
	if s == nil {
		return build()
	}
	s.mu.Lock()
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-c.done
		return c.bank, c.err
	}
	c := &storeCall{done: make(chan struct{})}
	s.inflight[key] = c
	s.mu.Unlock()

	defer func() {
		close(c.done)
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
	}()

	if b, err := s.Get(key); err == nil && b != nil {
		c.bank = b
		return b, nil
	}
	b, err := build()
	if err != nil {
		c.err = err
		return nil, err
	}
	s.builds.Add(1)
	if perr := s.Put(key, b); perr != nil {
		// The bank itself is good; a failed cache write (full disk,
		// read-only cache) must not fail the computation.
		c.bank = b
		return b, nil
	}
	c.bank = b
	return b, nil
}

// BoundCache applies a -cache-max-bytes style flag to a store: it installs
// the write-through size bound and prunes immediately, reporting results and
// failures through store.Log. maxBytes <= 0 or a nil store is a no-op —
// callers pass the flag through unconditionally. The three CLIs
// (noisyevald, fedtune, figures) share this so prune errors are never
// silently dropped.
func BoundCache(store *BankStore, maxBytes int64) {
	if store == nil || maxBytes <= 0 {
		return
	}
	store.SetMaxBytes(maxBytes)
	evicted, freed, err := store.Prune(maxBytes)
	switch {
	case err != nil:
		store.Log.Error("cache prune failed", "err", err)
	case evicted > 0:
		store.Log.Info("cache pruned", "max_bytes", maxBytes, "evicted", evicted, "freed_bytes", freed)
	}
}

// StoreEntry describes one cached bank on disk.
type StoreEntry struct {
	Key     string // content address (BankKeyForPopulation)
	Bytes   int64  // encoded size on disk
	ModTime int64  // unix seconds of the entry file
}

// Entries lists the complete cache entries on disk, sorted by key. In-flight
// temp files are excluded (only atomically renamed `<key>.bank` files are
// visible entries). A nil store has no entries.
func (s *BankStore) Entries() ([]StoreEntry, error) {
	if s == nil {
		return nil, nil
	}
	names, err := filepath.Glob(filepath.Join(s.dir, "*.bank"))
	if err != nil {
		return nil, fmt.Errorf("core: bank store list: %w", err)
	}
	sort.Strings(names)
	out := make([]StoreEntry, 0, len(names))
	for _, name := range names {
		info, err := os.Stat(name)
		if err != nil {
			continue // raced with an eviction; skip
		}
		out = append(out, StoreEntry{
			Key:     strings.TrimSuffix(filepath.Base(name), ".bank"),
			Bytes:   info.Size(),
			ModTime: info.ModTime().Unix(),
		})
	}
	return out, nil
}

// Stats returns a snapshot of the cache counters.
func (s *BankStore) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	return StoreStats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Builds:         s.builds.Load(),
		Evicted:        s.evicted.Load(),
		StaleFormat:    s.staleFormat.Load(),
		CorruptSegment: s.corruptSegment.Load(),
	}
}

// BuildBankCached is BuildBank with a write-through cache: it returns the
// stored bank when the content address (BankKeyForPopulation) hits, and
// builds + stores it otherwise. The returned bool reports a cache hit. A nil
// store degrades to a plain BuildBank.
//
// When ctx carries an obs.Trace, the call records a bank.build span around
// actual training or a bank.lookup span for a cache/coalesced hit.
func BuildBankCached(ctx context.Context, store *BankStore, pop *data.Population, opts BuildOptions, seed uint64) (*Bank, bool, error) {
	tr := obs.TraceFrom(ctx)
	if store == nil {
		sp := tr.StartSpan("bank.build", "source", "local")
		b, err := BuildBank(pop, opts, seed)
		sp.End()
		return b, false, err
	}
	key := BankKeyForPopulation(pop, opts, seed)
	built := false
	start := time.Now()
	b, err := store.GetOrBuild(key, func() (*Bank, error) {
		built = true
		sp := tr.StartSpan("bank.build", "key", ShortKey(key), "source", "local")
		defer sp.End()
		return BuildBank(pop, opts, seed)
	})
	if !built {
		tr.AddSpan("bank.lookup", start, time.Since(start), "key", ShortKey(key), "hit", "true")
	}
	return b, !built && err == nil, err
}

// ShortKey abbreviates a 64-hex content address for log lines and span
// attrs; short keys pass through unchanged.
func ShortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
