package dist

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/data"
	"noisyeval/internal/obs"
)

// CoordinatorOptions configures a Coordinator. The zero value works for
// in-process use: 8-config shards, 2-minute leases, wall clock, no
// self-build.
type CoordinatorOptions struct {
	// Store is the shared content-addressed bank cache; assembled banks are
	// written through it and GET /v1/banks/{key} serves from it (nil = no
	// persistence, no peer serving).
	Store *core.BankStore
	// ShardConfigs is the config-index width of one shard job (default 8).
	// Smaller shards spread better across a fleet; larger ones amortize
	// lease round trips.
	ShardConfigs int
	// LeaseTTL is how long a worker owns a leased shard before the
	// coordinator re-queues it (default 2m). It should comfortably exceed
	// one shard's training time.
	LeaseTTL time.Duration
	// MaxAttempts bounds how many times one shard may be leased (default
	// 5). A shard that keeps expiring or being rejected — a deterministic
	// training failure, or a version-skewed worker uploading garbage —
	// fails its whole build instead of re-queueing forever, so
	// BuildSharded reports an error exactly like the local BuildBank it
	// replaces rather than blocking every waiter.
	MaxAttempts int
	// StallTimeout fails a build that has seen no progress — no lease
	// granted, no shard accepted — for this long (default 15m; negative =
	// never). It is the backstop for a fleet that died entirely: with no
	// worker left to touch the queue, lease expiry and MaxAttempts alone
	// can never fire, and every BuildSharded waiter would hang forever. A
	// background sweeper enforces it (and requeues expired leases) even
	// when no request arrives. Like LeaseTTL, set it comfortably above the
	// worst-case single-shard training time: a shard still in flight past
	// the timeout is indistinguishable from a dead fleet.
	StallTimeout time.Duration
	// SelfBuild is the number of in-process worker goroutines the
	// coordinator runs against its own queue (0 = none). With self-build
	// on, a cluster degrades gracefully to a local build when no external
	// worker ever connects.
	SelfBuild int
	// Workers bounds per-shard training parallelism for self-built shards
	// (0 = GOMAXPROCS).
	Workers int
	// Clock is the time source (default time.Now; tests inject a fake to
	// drive lease expiry deterministically).
	Clock func() time.Time
}

type jobState int

const (
	jobPending jobState = iota
	jobLeased
	jobDone
)

// job is one shard of one build moving through pending → leased → done
// (leases that expire fall back to pending).
type job struct {
	id       string
	build    *build
	lo, hi   int
	state    jobState
	expiry   time.Time // lease deadline while leased
	worker   string    // current/last lessee
	attempts int       // lease count
}

// build is one in-flight sharded bank construction.
type build struct {
	key     string
	popKey  string
	pop     *data.Population
	plan    *core.BuildPlan
	optsGob []byte
	seed    uint64

	// trace is the obs trace of the request that started this build (nil
	// when untraced). Worker and self-build shard spans attach to it.
	trace *obs.Trace

	pending    int // jobs not yet done
	assembling bool
	shards     []*core.BankShard
	// lastProgress is the coordinator-clock time of the build's most
	// recent lease or accepted shard (creation time initially); the
	// sweeper's stall detection measures from it.
	lastProgress time.Time

	done chan struct{} // closed when bank/err is set
	bank *core.Bank
	err  error
}

// Coordinator owns the shard queue of a cluster: it splits bank builds into
// content-addressed shard jobs, leases them to workers, re-queues expired
// leases, deduplicates completions, reassembles finished builds, and writes
// the result through the shared BankStore. All methods are safe for
// concurrent use.
type Coordinator struct {
	opts CoordinatorOptions
	// maxShardBytes bounds what one shard upload may inflate to
	// (maxShardDecodedBytes; a field so tests can exercise the bound cheaply).
	maxShardBytes int64

	mu      sync.Mutex
	builds  map[string]*build // by bank key (in-flight only)
	jobs    map[string]*job   // every live job by id
	queue   []*job            // pending jobs, FIFO
	pops    map[string]*popRecord
	workers map[string]bool // distinct worker ids seen

	wake     chan struct{} // nudges self-build workers
	selfStop chan struct{}
	selfWG   sync.WaitGroup

	// metrics holds the coordinator's dist_* series; noisyevald attaches it
	// to its /metrics, cmd/figures serves it beside the work routes.
	metrics                                      *obs.Registry
	buildsStarted, buildsCompleted, buildsFailed *obs.Counter
	completed, requeued, duplicates, rejected    *obs.Counter
	selfBuilt, bankFetches, popFetches           *obs.Counter
}

// popRecord caches one population and its lazily rendered wire bytes.
type popRecord struct {
	pop *data.Population

	once  sync.Once
	bytes []byte
	err   error
}

func (p *popRecord) wire() ([]byte, error) {
	p.once.Do(func() { p.bytes, p.err = EncodePopulation(p.pop) })
	return p.bytes, p.err
}

// NewCoordinator starts a coordinator (self-build goroutines included when
// configured). Close releases them.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.ShardConfigs <= 0 {
		opts.ShardConfigs = 8
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 2 * time.Minute
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	if opts.StallTimeout == 0 {
		opts.StallTimeout = 15 * time.Minute
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	c := &Coordinator{
		opts:     opts,
		builds:   map[string]*build{},
		jobs:     map[string]*job{},
		pops:     map[string]*popRecord{},
		workers:  map[string]bool{},
		wake:     make(chan struct{}, 1),
		selfStop: make(chan struct{}),

		maxShardBytes: maxShardDecodedBytes,
		metrics:       obs.NewRegistry(),
	}
	reg := c.metrics
	c.buildsStarted = reg.Counter("dist_builds_started_total", "Sharded bank builds started.")
	c.buildsCompleted = reg.Counter("dist_builds_completed_total", "Sharded bank builds completed.")
	c.buildsFailed = reg.Counter("dist_builds_failed_total", "Sharded bank builds failed.")
	reg.GaugeFunc("dist_shards_pending", "Shard jobs waiting for a lease.",
		func() int64 { pending, _ := c.jobCounts(); return pending })
	reg.GaugeFunc("dist_shards_leased", "Shard jobs currently leased.",
		func() int64 { _, leased := c.jobCounts(); return leased })
	c.completed = reg.Counter("dist_shards_completed_total", "Shard jobs accepted.")
	c.requeued = reg.Counter("dist_shards_requeued_total", "Shard leases expired and requeued.")
	c.duplicates = reg.Counter("dist_shards_duplicate_total", "Duplicate shard uploads discarded.")
	c.rejected = reg.Counter("dist_shards_rejected_total", "Shard uploads rejected as invalid for their job.")
	c.selfBuilt = reg.Counter("dist_shards_self_built_total", "Shards built by the coordinator's own loop.")
	c.bankFetches = reg.Counter("dist_bank_fetches_total", "Bank files served to peers.")
	c.popFetches = reg.Counter("dist_population_fetches_total", "Populations served to workers.")
	reg.GaugeFunc("dist_workers_seen", "Distinct workers that have ever leased.", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.workers))
	})
	for i := 0; i < opts.SelfBuild; i++ {
		c.selfWG.Add(1)
		go c.selfBuildLoop()
	}
	c.selfWG.Add(1)
	go c.sweeperLoop()
	return c
}

// sweeperLoop periodically requeues expired leases and fails stalled builds
// even when no worker request ever touches the queue again (the
// whole-fleet-died case).
func (c *Coordinator) sweeperLoop() {
	defer c.selfWG.Done()
	interval := c.opts.LeaseTTL / 4
	if interval > 10*time.Second {
		interval = 10 * time.Second
	}
	if interval < 250*time.Millisecond {
		interval = 250 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.selfStop:
			return
		case <-t.C:
			c.Sweep()
		}
	}
}

// Sweep requeues expired leases and fails builds stalled past StallTimeout.
// The background sweeper calls it periodically; tests drive it directly
// against the injectable clock.
func (c *Coordinator) Sweep() {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requeueExpiredLocked(now)
	if c.opts.StallTimeout < 0 {
		return
	}
	for _, b := range c.builds {
		if now.Sub(b.lastProgress) > c.opts.StallTimeout {
			c.failBuildLocked(b, fmt.Errorf(
				"dist: build %s stalled: no lease or shard for %s (workers gone? start noisyworker processes or enable self-build)",
				b.key, c.opts.StallTimeout))
		}
	}
}

// Close stops the self-build goroutines. In-flight builds keep their state;
// external workers can still complete them.
func (c *Coordinator) Close() {
	c.mu.Lock()
	select {
	case <-c.selfStop:
	default:
		close(c.selfStop)
	}
	c.mu.Unlock()
	c.selfWG.Wait()
}

// Store returns the coordinator's bank store (nil when none).
func (c *Coordinator) Store() *core.BankStore { return c.opts.Store }

// BuildSharded splits the build into shard jobs, waits for the fleet (and
// any self-build goroutines) to complete them, reassembles, verifies, writes
// the bank through the store, and returns it. Concurrent calls for one
// content address coalesce onto a single build. The ctx's obs.Trace (when
// present) becomes the build's trace: its ID travels in every leased Job so
// worker shard.train spans land on the same timeline; coalesced waiters
// join the first caller's build and record no spans of their own.
func (c *Coordinator) BuildSharded(ctx context.Context, pop *data.Population, opts core.BuildOptions, seed uint64) (*core.Bank, error) {
	key := core.BankKeyForPopulation(pop, opts, seed)

	// Coalesce before any expensive derivation: concurrent requests for
	// one content address are the serving layer's normal cold pattern, and
	// only the caller that registers the build should pay for the plan
	// (repartition pools + config sampling).
	c.mu.Lock()
	if b, ok := c.builds[key]; ok {
		c.mu.Unlock()
		<-b.done
		return b.bank, b.err
	}
	b := &build{
		key:          key,
		pop:          pop,
		seed:         seed,
		trace:        obs.TraceFrom(ctx),
		done:         make(chan struct{}),
		lastProgress: c.opts.Clock(),
	}
	c.builds[key] = b
	c.buildsStarted.Inc()
	c.mu.Unlock()

	// Derive the skeleton outside the lock (it repartitions the validation
	// pool); coalesced waiters block on b.done, not on the mutex.
	plan, err := core.NewBuildPlan(pop, opts, seed)
	if err == nil {
		b.popKey = core.PopulationFingerprint(pop)
		// Workers re-plan from the same inputs; ship options with
		// parallelism zeroed (each worker picks its own, content never
		// depends on it).
		wireOpts := opts
		wireOpts.Workers = 0
		b.optsGob, err = encodeOptions(wireOpts)
	}
	if err != nil {
		c.mu.Lock()
		if !b.assembling { // the sweeper may have failed it already
			b.assembling = true // invalid inputs: no jobs exist to tear down
			b.err = err
			delete(c.builds, b.key)
			c.buildsFailed.Inc()
			c.mu.Unlock()
			close(b.done)
			return nil, err
		}
		c.mu.Unlock()
		return nil, b.err
	}

	c.mu.Lock()
	if b.assembling { // failed (stall sweep) while planning: don't enqueue
		c.mu.Unlock()
		<-b.done
		return b.bank, b.err
	}
	b.plan = plan
	if _, ok := c.pops[b.popKey]; !ok {
		c.pops[b.popKey] = &popRecord{pop: pop}
	}
	ranges := core.ShardRanges(plan.NumConfigs(), c.opts.ShardConfigs)
	b.pending = len(ranges)
	for _, r := range ranges {
		j := &job{id: jobID(key, r[0], r[1]), build: b, lo: r[0], hi: r[1]}
		c.jobs[j.id] = j
		c.queue = append(c.queue, j)
	}
	c.mu.Unlock()

	c.nudge()
	<-b.done
	return b.bank, b.err
}

// nudge wakes one idle self-build goroutine.
func (c *Coordinator) nudge() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// requeueExpiredLocked returns expired leases to the pending queue. Called
// under c.mu from every lease/complete entry point, so expiry needs no
// background timer — progress on the queue implies progress on expiry.
func (c *Coordinator) requeueExpiredLocked(now time.Time) {
	for _, j := range c.jobs {
		if j.state == jobLeased && now.After(j.expiry) {
			j.state = jobPending
			c.queue = append(c.queue, j)
			c.requeued.Inc()
		}
	}
}

// failBuildLocked tears down a build that can no longer succeed: every
// waiter on BuildSharded receives err, the build's jobs become stale, and
// still-queued entries are skipped by Lease. Idempotent.
func (c *Coordinator) failBuildLocked(b *build, err error) {
	if b.assembling {
		return // finishBuild (or an earlier failure) already owns the exit
	}
	b.assembling = true
	b.err = err
	for id, j := range c.jobs {
		if j.build == b {
			j.state = jobDone // queue pops skip non-pending entries
			delete(c.jobs, id)
		}
	}
	delete(c.builds, b.key)
	c.dropPopLocked(b.popKey)
	c.buildsFailed.Inc()
	close(b.done)
}

// dropPopLocked releases a population record once no in-flight build
// references it, so a long-running coordinator does not retain every
// population (plus its memoized wire bytes) forever.
func (c *Coordinator) dropPopLocked(popKey string) {
	for _, other := range c.builds {
		if other.popKey == popKey {
			return
		}
	}
	delete(c.pops, popKey)
}

// selfWorker is the name the coordinator's own build loop (SelfBuild) leases
// under; it is no worker of the fleet, so dist_workers_seen leaves it out.
const selfWorker = "__self__"

// seeLocked records worker among the distinct workers seen.
func (c *Coordinator) seeLocked(worker string) {
	if worker != "" && worker != selfWorker {
		c.workers[worker] = true
	}
}

// Lease hands the oldest pending shard to worker, or reports none available.
func (c *Coordinator) Lease(worker string) (Job, bool) {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seeLocked(worker)
	c.requeueExpiredLocked(now)
	for len(c.queue) > 0 {
		j := c.queue[0]
		c.queue = c.queue[1:]
		if j.state != jobPending { // completed while queued (late shard)
			continue
		}
		if j.attempts >= c.opts.MaxAttempts {
			// Every prior lease expired or was rejected: the shard (or the
			// fleet) is broken in a way retrying won't fix. Fail the build
			// so its waiters get an error instead of an eternal queue.
			c.failBuildLocked(j.build, fmt.Errorf(
				"dist: shard %s failed %d lease attempts (expired or rejected); giving up on build %s",
				j.id, j.attempts, j.build.key))
			continue
		}
		j.state = jobLeased
		j.expiry = now.Add(c.opts.LeaseTTL)
		j.worker = worker
		j.attempts++
		j.build.lastProgress = now
		return Job{
			ID:              j.id,
			BankKey:         j.build.key,
			PopKey:          j.build.popKey,
			Lo:              j.lo,
			Hi:              j.hi,
			Seed:            j.build.seed,
			OptsGob:         j.build.optsGob,
			Attempt:         j.attempts - 1,
			LeaseTTLSeconds: c.opts.LeaseTTL.Seconds(),
			TraceID:         j.build.trace.ID(),
		}, true
	}
	return Job{}, false
}

// Complete records one finished shard. It is idempotent: a duplicate
// completion (the job already done) or a stale one (the build no longer
// exists) is acknowledged without effect, so workers whose lease expired —
// or who raced a re-lease — can upload safely. A shard whose shape does not
// match the job is rejected and the job re-queued.
//
// spans are worker-side timing (shard.train, decoded from the completion's
// X-Trace-Spans header, or the self-build loop's own measurement); they
// attach to the build's trace only when the shard is accepted — duplicate,
// stale, and rejected work never pollutes the timeline.
func (c *Coordinator) Complete(id, worker string, sh *core.BankShard, spans ...obs.Span) (status string, err error) {
	now := c.opts.Clock()
	c.mu.Lock()
	c.seeLocked(worker)
	c.requeueExpiredLocked(now)
	j, ok := c.jobs[id]
	if !ok {
		c.duplicates.Inc()
		c.mu.Unlock()
		return "stale", nil
	}
	if j.state == jobDone {
		c.duplicates.Inc()
		c.mu.Unlock()
		return "duplicate", nil
	}
	b := j.build
	if sh.Lo != j.lo || sh.Hi != j.hi {
		err = fmt.Errorf("dist: shard range [%d, %d) does not match job %s", sh.Lo, sh.Hi, id)
	} else if verr := sh.Validate(b.plan); verr != nil {
		err = verr
	}
	if err != nil {
		c.rejected.Inc()
		if j.state == jobLeased { // give the shard to someone else
			j.state = jobPending
			c.queue = append(c.queue, j)
		}
		c.mu.Unlock()
		c.nudge()
		return "", err
	}
	j.state = jobDone
	b.shards = append(b.shards, sh)
	b.pending--
	b.lastProgress = now
	c.completed.Inc()
	assemble := b.pending == 0 && !b.assembling
	if assemble {
		b.assembling = true
	}
	c.mu.Unlock()

	b.trace.Append(spans...)
	if assemble {
		c.finishBuild(b)
	}
	return "ok", nil
}

// finishBuild reassembles a fully sharded build, verifies it, persists it,
// and releases every waiter. Runs outside c.mu (assembly touches every error
// vector; leases must not stall behind it).
func (c *Coordinator) finishBuild(b *build) {
	bank, err := core.AssembleBank(b.plan, b.shards)
	if err == nil && c.opts.Store != nil {
		// Persisting is best-effort, exactly like BuildBankCached: a full
		// disk must not fail a finished build.
		c.opts.Store.Put(b.key, bank)
	}

	c.mu.Lock()
	b.bank, b.err = bank, err
	delete(c.builds, b.key)
	for _, r := range core.ShardRanges(b.plan.NumConfigs(), c.opts.ShardConfigs) {
		delete(c.jobs, jobID(b.key, r[0], r[1]))
	}
	c.dropPopLocked(b.popKey)
	if err != nil {
		c.buildsFailed.Inc()
	} else {
		c.buildsCompleted.Inc()
	}
	c.mu.Unlock()
	close(b.done)
}

// selfBuildLoop is one in-process worker: it leases from the local queue and
// trains shards directly against the build's plan (no encode/decode round
// trip).
func (c *Coordinator) selfBuildLoop() {
	defer c.selfWG.Done()
	for {
		select {
		case <-c.selfStop:
			return
		default:
		}
		j, ok := c.Lease(selfWorker)
		if !ok {
			select {
			case <-c.selfStop:
				return
			case <-c.wake:
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		c.mu.Lock()
		jb, live := c.jobs[j.ID]
		var b *build
		if live {
			b = jb.build
		}
		c.mu.Unlock()
		if !live {
			continue
		}
		// The lease is cancelled when its build ends without it (another
		// shard failed it) or the coordinator closes: the shard is then dead,
		// or an external worker's once the lease expires.
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			select {
			case <-b.done:
			case <-c.selfStop:
			case <-ctx.Done():
			}
			cancel()
		}()
		start := time.Now()
		sh, err := b.plan.TrainRangeCtx(ctx, j.Lo, j.Hi, c.opts.Workers)
		cancelled := ctx.Err() != nil
		cancel()
		if err != nil && cancelled {
			continue
		}
		if err != nil {
			// A local training error is deterministic (bad config, bad
			// options) — exactly what local BuildBank would return. Fail
			// the build now instead of letting the lease cycle burn
			// through MaxAttempts on an unwinnable shard.
			c.mu.Lock()
			if jb, live := c.jobs[j.ID]; live {
				c.failBuildLocked(jb.build, fmt.Errorf("dist: shard %s: %w", j.ID, err))
			}
			c.mu.Unlock()
			continue
		}
		c.selfBuilt.Inc()
		c.Complete(j.ID, selfWorker, sh, obs.Span{
			Name: "shard.train", Start: start, Dur: time.Since(start),
			Attrs: []string{"worker", selfWorker, "range", shardRange(j.Lo, j.Hi)},
		})
	}
}

// Metrics returns the coordinator's metrics registry (the dist_* series).
func (c *Coordinator) Metrics() *obs.Registry { return c.metrics }

// jobCounts returns how many live shard jobs are pending and leased.
func (c *Coordinator) jobCounts() (pending, leased int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range c.jobs {
		switch j.state {
		case jobPending:
			pending++
		case jobLeased:
			leased++
		}
	}
	return pending, leased
}

// Register mounts the coordinator's HTTP endpoints onto mux (noisyevald does
// this behind -cluster; cmd/figures behind -cluster-addr).
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/work/lease", c.handleLease)
	mux.HandleFunc("POST /v1/work/complete", c.handleComplete)
	mux.HandleFunc("GET /v1/work/populations/{key}", c.handlePopulation)
	mux.HandleFunc("GET /v1/banks/{key}", c.handleBank)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil && err != io.EOF {
		writeError(w, http.StatusBadRequest, "decode lease request: %v", err)
		return
	}
	job, ok := c.Lease(req.Worker)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if job.TraceID != "" {
		w.Header().Set(obs.TraceIDHeader, job.TraceID)
	}
	writeJSON(w, http.StatusOK, map[string]Job{"job": job})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("job")
	if id == "" {
		writeError(w, http.StatusBadRequest, "missing job parameter")
		return
	}
	sh, err := DecodeShard(io.LimitReader(r.Body, MaxShardBodyBytes), c.maxShardBytes)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decode shard: %v", err)
		return
	}
	// Worker-side spans ride the completion's X-Trace-Spans header; a
	// malformed header never fails the upload (the shard is the payload,
	// observability is best-effort).
	spans, serr := obs.UnmarshalSpans(r.Header.Get(obs.TraceSpansHeader))
	if serr != nil {
		spans = nil
	}
	status, err := c.Complete(id, r.URL.Query().Get("worker"), sh, spans...)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, completeResponse{Status: status})
}

func (c *Coordinator) handlePopulation(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	c.mu.Lock()
	rec, ok := c.pops[key]
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "no population %q", key)
		return
	}
	b, err := rec.wire()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode population: %v", err)
		return
	}
	c.popFetches.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(b)
}

// shardRange renders a [lo, hi) config range for span attrs.
func shardRange(lo, hi int) string { return strconv.Itoa(lo) + "-" + strconv.Itoa(hi) }

// safeKey guards the file-serving path: store keys are hex content hashes,
// so anything else (path separators, dots, ..) is rejected outright.
func safeKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for _, ch := range key {
		switch {
		case ch >= 'a' && ch <= 'z', ch >= 'A' && ch <= 'Z', ch >= '0' && ch <= '9', ch == '-':
		default:
			return false
		}
	}
	return true
}

// handleBank serves a cached bank — the file exactly as the store persisted
// it, streamed through gzip without decoding — so warm peers can seed cold
// ones (the read-through tier of dist.Builder). A key is a content address:
// it serves exactly the entry stored under it, or 404.
func (c *Coordinator) handleBank(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !safeKey(key) {
		writeError(w, http.StatusBadRequest, "malformed bank key")
		return
	}
	store := c.opts.Store
	if store == nil {
		writeError(w, http.StatusNotFound, "no bank store")
		return
	}
	f, err := os.Open(store.Path(key))
	if err != nil {
		writeError(w, http.StatusNotFound, "no bank %s", key)
		return
	}
	defer f.Close()
	c.bankFetches.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	zw := gzip.NewWriter(w)
	// A failed copy leaves the member without its trailer, which the
	// fetcher's inflate rejects; nothing more can be said on this connection.
	if _, err := io.Copy(zw, f); err == nil {
		zw.Close()
	}
}
