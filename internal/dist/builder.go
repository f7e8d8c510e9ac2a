package dist

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/data"
	"noisyeval/internal/obs"
)

// Builder is the cluster-aware core.BankBuilder: a read-through tier stack
// over the same content address every layer of the system shares.
//
//	local store hit  →  cached bank, no work
//	warm peer hit    →  GET /v1/banks/{key} from a peer, persisted locally
//	coordinator      →  sharded build across the worker fleet
//	fallback         →  single-process BuildBankCached
//
// Suite-level once-per-key guards and the store's singleflight keep
// concurrent requests for one key from racing down the stack.
type Builder struct {
	// Store is the local content-addressed cache (nil = no local tier).
	Store *core.BankStore
	// Peers are base URLs of warm daemons whose /v1/banks/{key} endpoint
	// can seed this process without retraining.
	Peers []string
	// Coord, when set, shards cold builds across the fleet.
	Coord *Coordinator
	// Client fetches from peers (default: 5-second timeout — a warm peer
	// answers from a local file, and peers are probed serially ahead of
	// the build tiers, so a hung peer must not stall cold builds).
	Client *http.Client

	peerHits, peerMisses atomic.Int64
}

// BuilderStats reports the peer tier's effectiveness.
type BuilderStats struct {
	PeerHits   int64 `json:"peer_hits"`
	PeerMisses int64 `json:"peer_misses"`
}

// Stats snapshots the builder counters.
func (b *Builder) Stats() BuilderStats {
	return BuilderStats{PeerHits: b.peerHits.Load(), PeerMisses: b.peerMisses.Load()}
}

// BuildBank implements core.BankBuilder. cached reports that no training was
// scheduled anywhere on behalf of this call (local or peer hit). The ctx's
// obs.Trace (when present) gets a bank.lookup span naming the tier that
// satisfied the request, and sharded builds propagate the trace into the
// coordinator so worker shard spans join the same timeline.
func (b *Builder) BuildBank(ctx context.Context, pop *data.Population, opts core.BuildOptions, seed uint64) (*core.Bank, bool, error) {
	tr := obs.TraceFrom(ctx)
	key := core.BankKeyForPopulation(pop, opts, seed)
	start := time.Now()
	if bank, err := b.Store.Get(key); err == nil && bank != nil {
		tr.AddSpan("bank.lookup", start, time.Since(start),
			"key", core.ShortKey(key), "tier", "store", "hit", "true")
		return bank, true, nil
	}
	if bank := b.fetchFromPeers(key); bank != nil {
		if b.Store != nil {
			b.Store.Put(key, bank) // best-effort, like every cache write
		}
		tr.AddSpan("bank.lookup", start, time.Since(start),
			"key", core.ShortKey(key), "tier", "peer", "hit", "true")
		return bank, true, nil
	}
	tr.AddSpan("bank.lookup", start, time.Since(start),
		"key", core.ShortKey(key), "hit", "false")
	if b.Coord != nil {
		sp := tr.StartSpan("bank.build", "key", core.ShortKey(key), "source", "fleet")
		bank, err := b.Coord.BuildSharded(ctx, pop, opts, seed)
		sp.End()
		return bank, false, err
	}
	return core.BuildBankCached(ctx, b.Store, pop, opts, seed)
}

// fetchFromPeers tries each warm peer in order and returns the first bank
// that downloads and validates. Peer failures are soft: a dead or cold peer
// just means building locally.
func (b *Builder) fetchFromPeers(key string) *core.Bank {
	if len(b.Peers) == 0 || !safeKey(key) {
		return nil
	}
	client := b.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	for _, peer := range b.Peers {
		bank, err := fetchBank(client, peer, key, core.MaxBankImageBytes)
		if err != nil {
			b.peerMisses.Add(1)
			continue
		}
		b.peerHits.Add(1)
		return bank
	}
	return nil
}

// fetchBank downloads and decodes one bank from a peer, inflating no more
// than limit bytes: a peer is another process's output, so a body that runs
// past the bound (or is not a gzipped bankfmt/v5 image at all) is a miss,
// not an allocation.
func fetchBank(client *http.Client, peer, key string, limit int64) (*core.Bank, error) {
	resp, err := client.Get(peer + "/v1/banks/" + key)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: peer %s: %s", peer, resp.Status)
	}
	// A peer serves grown banks through store aliases; a moved key means the
	// peer no longer holds the exact pool this build's content address
	// promises, so it is a miss here, not a substitute.
	if got := resp.Header.Get("X-Bank-Key"); got != "" && got != key {
		return nil, fmt.Errorf("dist: peer %s: bank %s grown into %s", peer, key, got)
	}
	// The wire bytes are the store's file, gzipped; DecodeBank verifies every
	// segment before the bank is trusted or persisted.
	img, err := inflateBytes(resp.Body, limit)
	if err != nil {
		return nil, fmt.Errorf("dist: peer %s: %w", peer, err)
	}
	return core.DecodeBank(img)
}
