package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/data"
	"noisyeval/internal/obs"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8723).
	Coordinator string
	// Name identifies this worker in leases and coordinator stats
	// (default host-pid).
	Name string
	// Poll is the idle re-lease interval (default 500ms).
	Poll time.Duration
	// Workers bounds per-shard training parallelism (0 = GOMAXPROCS).
	Workers int
	// Client is the HTTP client (default: 2-minute timeout — shard uploads
	// carry full error tensors).
	Client *http.Client
}

// Worker is the lease-loop client of a Coordinator: it pulls shard jobs,
// regenerates nothing — populations arrive by content address and are cached
// — and trains its index ranges with the exact core.BuildPlan path a local
// BuildBank uses, so its shards are byte-identical to locally built ones.
type Worker struct {
	opts WorkerOptions

	mu    sync.Mutex
	pops  map[string]*data.Population // by population fingerprint
	plans map[string]*core.BuildPlan  // by bank key (pop + opts + seed)

	// metrics holds the worker_* series; cmd/noisyworker serves it at
	// GET /metrics (the CI cluster job asserts worker_shards_built_total).
	metrics                         *obs.Registry
	trainSeconds                    *obs.Histogram
	leases, leaseEmpty, leaseErrors *obs.Counter
	shardsBuilt, shardsFailed       *obs.Counter
	popFetches, bytesUploaded       *obs.Counter
}

// NewWorker creates a worker for the coordinator at base URL coord.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Name == "" {
		host, _ := os.Hostname()
		opts.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	reg := obs.NewRegistry()
	return &Worker{
		opts:    opts,
		pops:    map[string]*data.Population{},
		plans:   map[string]*core.BuildPlan{},
		metrics: reg,
		trainSeconds: reg.Histogram("worker_shard_train_seconds",
			"Wall-clock seconds training one leased shard.", nil),
		leases:        reg.Counter("worker_leases_total", "Successful shard leases."),
		leaseEmpty:    reg.Counter("worker_lease_empty_total", "Polls that found no work."),
		leaseErrors:   reg.Counter("worker_lease_errors_total", "Lease transport/protocol failures."),
		shardsBuilt:   reg.Counter("worker_shards_built_total", "Shards trained and accepted."),
		shardsFailed:  reg.Counter("worker_shards_failed_total", "Shards that failed locally or were rejected."),
		popFetches:    reg.Counter("worker_pop_fetches_total", "Populations downloaded."),
		bytesUploaded: reg.Counter("worker_bytes_uploaded_total", "Encoded shard bytes posted."),
	}
}

// Name returns the worker's lease identity.
func (w *Worker) Name() string { return w.opts.Name }

// Metrics returns the worker's metrics registry (the worker_* series).
func (w *Worker) Metrics() *obs.Registry { return w.metrics }

// Run leases and builds shards until ctx is cancelled. Cancellation drains
// gracefully: the shard in flight is finished and uploaded before Run
// returns, so its lease never has to expire. Transport errors back off to
// the poll interval and keep trying — a worker outliving a coordinator
// restart simply resumes.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		job, ok, err := w.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.leaseErrors.Inc()
			w.sleep(ctx)
			continue
		}
		if !ok {
			w.leaseEmpty.Inc()
			w.sleep(ctx)
			continue
		}
		w.leases.Inc()
		if err := w.process(ctx, job); err != nil {
			w.shardsFailed.Inc()
		} else {
			w.shardsBuilt.Inc()
		}
	}
}

func (w *Worker) sleep(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-time.After(w.opts.Poll):
	}
}

// lease asks the coordinator for one shard job.
func (w *Worker) lease(ctx context.Context) (Job, bool, error) {
	body, _ := json.Marshal(leaseRequest{Worker: w.opts.Name})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.opts.Coordinator+"/v1/work/lease", bytes.NewReader(body))
	if err != nil {
		return Job{}, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return Job{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return Job{}, false, nil
	case http.StatusOK:
		var envelope struct {
			Job Job `json:"job"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
			return Job{}, false, fmt.Errorf("dist: decode lease: %w", err)
		}
		return envelope.Job, true, nil
	default:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return Job{}, false, fmt.Errorf("dist: lease: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
}

// process builds one leased shard end to end and uploads it. The upload
// deliberately ignores ctx: a drained worker finishes and delivers in-flight
// work instead of wasting it.
func (w *Worker) process(ctx context.Context, job Job) error {
	// Training stops when the lease expires, for by then the coordinator has
	// re-queued the shard. Run's cancellation does not reach it: a drained
	// worker finishes its shard.
	leaseCtx := context.WithoutCancel(ctx)
	if ttl := time.Duration(job.LeaseTTLSeconds * float64(time.Second)); ttl > 0 {
		var cancel context.CancelFunc
		leaseCtx, cancel = context.WithTimeout(leaseCtx, ttl)
		defer cancel()
	}
	plan, err := w.plan(ctx, job)
	if err != nil {
		return err
	}
	start := time.Now()
	sh, err := plan.TrainRangeCtx(leaseCtx, job.Lo, job.Hi, w.opts.Workers)
	if err != nil {
		return err
	}
	dur := time.Since(start)
	w.trainSeconds.Observe(dur.Seconds())
	var spans []obs.Span
	if job.TraceID != "" {
		spans = []obs.Span{{
			Name: "shard.train", Start: start, Dur: dur,
			Attrs: []string{"worker", w.opts.Name, "range", shardRange(job.Lo, job.Hi)},
		}}
	}
	return w.complete(job, sh, spans)
}

// cacheCap bounds the worker's population and plan caches. Entries are
// content-addressed, so evicting one only costs a re-fetch/re-derivation —
// the cap just keeps a worker serving many coordinators/builds from
// accumulating every population it has ever seen.
const cacheCap = 8

// plan returns the build plan for the job's bank, deriving it once per bank
// key: shards of one build share the skeleton (repartition pools, sampled
// config pool), so leasing 16 shards must not repartition 16 times.
func (w *Worker) plan(ctx context.Context, job Job) (*core.BuildPlan, error) {
	w.mu.Lock()
	plan, ok := w.plans[job.BankKey]
	w.mu.Unlock()
	if ok {
		return plan, nil
	}
	pop, err := w.population(ctx, job.PopKey)
	if err != nil {
		return nil, err
	}
	opts, err := DecodeOptions(job.OptsGob)
	if err != nil {
		return nil, err
	}
	plan, err = core.NewBuildPlan(pop, opts, job.Seed)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	evictOver(w.plans, cacheCap)
	w.plans[job.BankKey] = plan
	w.mu.Unlock()
	return plan, nil
}

// evictOver drops arbitrary entries until the map is under cap (content-
// addressed caches tolerate arbitrary eviction; a miss just re-derives).
func evictOver[V any](m map[string]V, cap int) {
	for k := range m {
		if len(m) < cap {
			return
		}
		delete(m, k)
	}
}

// population returns the cached population for key, fetching it from the
// coordinator on first use. Content addressing makes the cache trivially
// correct: one fingerprint, one immutable population.
func (w *Worker) population(ctx context.Context, key string) (*data.Population, error) {
	w.mu.Lock()
	pop, ok := w.pops[key]
	w.mu.Unlock()
	if ok {
		return pop, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		w.opts.Coordinator+"/v1/work/populations/"+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("dist: fetch population %s: %s: %s", key, resp.Status, bytes.TrimSpace(b))
	}
	pop, err = DecodePopulation(resp.Body)
	if err != nil {
		return nil, err
	}
	w.popFetches.Inc()
	w.mu.Lock()
	evictOver(w.pops, cacheCap)
	w.pops[key] = pop
	w.mu.Unlock()
	return pop, nil
}

// complete uploads one finished shard, carrying any trace spans in request
// headers so they attach to the build's trace on the coordinator.
func (w *Worker) complete(job Job, sh *core.BankShard, spans []obs.Span) error {
	payload, err := EncodeShard(sh)
	if err != nil {
		return err
	}
	q := url.Values{"job": {job.ID}, "worker": {w.opts.Name}}
	req, err := http.NewRequest(http.MethodPost,
		w.opts.Coordinator+"/v1/work/complete?"+q.Encode(), bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if job.TraceID != "" && len(spans) > 0 {
		req.Header.Set(obs.TraceIDHeader, job.TraceID)
		if enc, err := obs.MarshalSpans(spans); err == nil {
			req.Header.Set(obs.TraceSpansHeader, enc)
		}
	}
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("dist: complete %s: %s: %s", job.ID, resp.Status, bytes.TrimSpace(b))
	}
	w.bytesUploaded.Add(int64(len(payload)))
	return nil
}
