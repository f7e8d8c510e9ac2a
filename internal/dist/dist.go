// Package dist shards bank construction across a fleet of worker processes.
//
// Bank building — training every configuration in the pool for the full
// round budget — is the dominant cold-run cost of the reproduction, and it
// is embarrassingly parallel by config index: core.BuildPlan derives every
// per-config RNG stream from (seed, "config-i") labels alone, so any process
// that can regenerate the population can train any index range and produce
// exactly the bytes a local build would. This package turns that property
// into a coordinator/worker protocol:
//
//   - The Coordinator splits a build into content-addressed shard jobs
//     (bank key + config index range), leases them to workers over HTTP,
//     reassembles completed shards with core.AssembleBank, and writes the
//     bank through the shared core.BankStore. Expired leases are re-queued;
//     duplicate or late completions are idempotent.
//   - A Worker (cmd/noisyworker) polls POST /v1/work/lease, fetches the
//     population once per content address, trains its range with the same
//     core.BuildPlan code path BuildBank uses, and uploads the shard via
//     POST /v1/work/complete.
//   - Builder implements core.BankBuilder as a tier stack: local store hit →
//     warm-peer fetch (GET /v1/banks/{key}) → coordinator-sharded build →
//     single-process fallback. exper.Suite and serve.Manager consume it
//     through the interface, so cmd/figures and noisyevald run in cluster
//     mode unchanged.
//
// Protocol (JSON envelopes; every bulk payload is one gzip member — shards
// and banks as bankfmt/v5 images, see core/bankv4.go, populations as gob —
// and every receiver inflates through one bounded helper):
//
//	POST /v1/work/lease              {"worker":"w1"} → 200 {job} | 204 no work
//	POST /v1/work/complete?job=&worker=   gzipped shard image → 200 {"status":"ok"|"duplicate"|"stale"}
//	GET  /v1/work/populations/{key}  gzipped population for a leased job
//	GET  /v1/banks/{key}             gzipped bank file from the store
//
// Counters are obs instruments, not a route of their own: Coordinator.Metrics
// holds the dist_* series (noisyevald attaches them to its GET /metrics,
// cmd/figures -cluster-addr serves them at GET /metrics beside the routes
// above) and Worker.Metrics the worker_* series (noisyworker's GET /metrics).
//
// Trace propagation: a Job carries the trace ID of the build that spawned it
// (also echoed in the lease response's X-Trace-Id header), and a worker's
// POST /v1/work/complete returns its shard.train span in the X-Trace-Spans
// header (obs.MarshalSpans JSON), so worker-side timing attaches to the
// coordinator-side build trace under one trace ID.
//
// Determinism: an assembled bank is byte-identical to a single-process
// BuildBank of the same (population, options, seed) — pinned by
// TestShardedBuildByteIdentical and the CI cluster smoke job. See DESIGN.md
// §8 for the full argument.
package dist

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"noisyeval/internal/core"
	"noisyeval/internal/data"
)

// Job is the wire form of one leased shard: everything a worker needs to
// train configs [Lo, Hi) of one bank build. The ID is content-addressed —
// bank key plus index range — so re-leases of the same shard share an
// identity and completions deduplicate naturally.
type Job struct {
	ID      string `json:"id"`
	BankKey string `json:"bank_key"`
	// PopKey is the population's content fingerprint; workers fetch and
	// cache the population bytes under it (GET /v1/work/populations/{key}).
	PopKey string `json:"pop_key"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Seed   uint64 `json:"seed"`
	// OptsGob is the gob-encoded core.BuildOptions of the build (base64 on
	// the wire via encoding/json).
	OptsGob []byte `json:"opts_gob"`
	// Attempt counts prior leases of this shard (0 on first lease).
	Attempt int `json:"attempt"`
	// LeaseTTLSeconds tells the worker how long the lease is valid.
	LeaseTTLSeconds float64 `json:"lease_ttl_seconds"`
	// TraceID identifies the obs trace of the build this shard belongs to
	// ("" when the build was requested without a trace). Workers echo it on
	// completion so their spans attach to the right timeline.
	TraceID string `json:"trace_id,omitempty"`
}

// jobID renders the content address of one shard job.
func jobID(bankKey string, lo, hi int) string {
	return fmt.Sprintf("%s:%d-%d", bankKey, lo, hi)
}

// leaseRequest is the body of POST /v1/work/lease.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// completeResponse is the body of a POST /v1/work/complete answer.
type completeResponse struct {
	// Status is "ok" (shard accepted), "duplicate" (job already completed),
	// or "stale" (job's build no longer exists; the result was not needed).
	Status string `json:"status"`
}

// gzipMember wraps write's output in one gzip member.
func gzipMember(write func(io.Writer) error) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := write(zw); err != nil {
		return nil, fmt.Errorf("dist: encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("dist: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Wire safety bounds. A full-scale shard (3 partitions × 8 configs × ~5
// rungs × 10k clients × 4-byte counts) is a few MB; the caps leave two orders
// of magnitude of headroom while keeping a hostile payload — the complete
// endpoint is reachable by anything that can reach the daemon — from
// inflating into an unbounded allocation.
const (
	// MaxShardBodyBytes bounds the compressed shard upload a coordinator
	// reads from one POST /v1/work/complete.
	MaxShardBodyBytes = 256 << 20
	// maxShardDecodedBytes bounds what one shard upload may inflate to (the
	// image is the error arena plus a few hundred bytes of framing).
	maxShardDecodedBytes = 512 << 20
)

// inflate hands read the inflated content of r's gzip stream and fails if
// the stream holds more than limit inflated bytes — before read can have
// buffered more than that (limit <= 0 = unbounded, for payloads from a
// source the caller chose to trust).
func inflate(r io.Reader, limit int64, read func(io.Reader) error) error {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return fmt.Errorf("dist: decode: %w", err)
	}
	defer zr.Close()
	if limit <= 0 {
		limit = math.MaxInt64 - 1
	}
	src := &io.LimitedReader{R: zr, N: limit + 1}
	if err := read(src); err != nil {
		return fmt.Errorf("dist: decode: %w", err)
	}
	if src.N == 0 {
		return fmt.Errorf("dist: decode: payload inflates past the %d-byte bound", limit)
	}
	return nil
}

// inflateBytes reads the whole inflated content of r's gzip stream, bounded
// like inflate.
func inflateBytes(r io.Reader, limit int64) (data []byte, err error) {
	err = inflate(r, limit, func(src io.Reader) error {
		data, err = io.ReadAll(src)
		return err
	})
	return data, err
}

// EncodeShard renders a shard for the wire: its bankfmt/v5 image
// (core.MarshalShardV4) inside one gzip member. Workers upload exactly
// these bytes.
func EncodeShard(sh *core.BankShard) ([]byte, error) {
	img, err := core.MarshalShardV4(sh)
	if err != nil {
		return nil, fmt.Errorf("dist: encode shard: %w", err)
	}
	return gzipMember(func(w io.Writer) error {
		_, err := w.Write(img)
		return err
	})
}

// DecodeShard reads one EncodeShard payload. The inflate stops at limit
// bytes (coordinators pass maxShardDecodedBytes) and the decoded arena is a
// view into the inflated image, so a payload claiming more fails instead of
// exhausting memory; anything but an intact two-segment bankfmt/v5 shard
// image is refused undecoded.
func DecodeShard(r io.Reader, limit int64) (*core.BankShard, error) {
	img, err := inflateBytes(r, limit)
	if err != nil {
		return nil, err
	}
	sh, err := core.UnmarshalShardV4(img)
	if err != nil {
		return nil, fmt.Errorf("dist: decode shard: %w", err)
	}
	return sh, nil
}

// EncodePopulation renders a population for the wire (gzipped gob).
func EncodePopulation(p *data.Population) ([]byte, error) {
	return gzipMember(func(w io.Writer) error { return gob.NewEncoder(w).Encode(p) })
}

// DecodePopulation reads one EncodePopulation payload (workers only decode
// populations from the coordinator they chose to pull from, so the stream
// is unbounded).
func DecodePopulation(r io.Reader) (*data.Population, error) {
	var p data.Population
	if err := inflate(r, 0, func(src io.Reader) error { return gob.NewDecoder(src).Decode(&p) }); err != nil {
		return nil, err
	}
	return &p, nil
}

// encodeOptions renders build options for a Job (plain gob: small, and the
// JSON envelope already base64s it).
func encodeOptions(opts core.BuildOptions) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(opts); err != nil {
		return nil, fmt.Errorf("dist: encode options: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeOptions reads a Job's OptsGob back into build options.
func DecodeOptions(b []byte) (core.BuildOptions, error) {
	var opts core.BuildOptions
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&opts); err != nil {
		return core.BuildOptions{}, fmt.Errorf("dist: decode options: %w", err)
	}
	return opts, nil
}
