package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/exper"
	"noisyeval/internal/obs"
	"noisyeval/internal/serve/journal"
	"noisyeval/pkg/client"
)

// Submission outcomes the HTTP layer maps to status codes.
var (
	// ErrBadRequest wraps request validation failures (HTTP 400).
	ErrBadRequest = errors.New("bad request")
	// ErrQueueFull signals backpressure: the bounded queue is at capacity
	// (HTTP 503 + Retry-After).
	ErrQueueFull = errors.New("run queue full")
	// ErrShuttingDown rejects submissions during graceful shutdown (503).
	ErrShuttingDown = errors.New("server shutting down")
	// ErrJournalFull rejects submissions when the durability journal's byte
	// budget is exhausted even after compaction — admission without a
	// durable record would silently downgrade the crash-safety contract
	// (503 + Retry-After).
	ErrJournalFull = errors.New("run journal full")
	// ErrShedCold sheds submissions that need a cold bank build while the
	// queue is under pressure, preserving capacity for warm-cache work that
	// clears quickly (503 + Retry-After).
	ErrShedCold = errors.New("queue under pressure: cold-bank submission shed")
	// ErrUnknownBank rejects a grow request whose key matches no bank any
	// scale's suite has resolved (HTTP 404).
	ErrUnknownBank = errors.New("unknown bank key")
)

// Options configures a Manager. The zero value works: quick/full scales, a
// nil (always-miss) bank store, and small defaults for pool and queue.
type Options struct {
	// Store is the shared content-addressed bank cache (nil = no cache).
	Store *core.BankStore
	// Builder, when set, overrides how suites build banks (cluster mode
	// hands the dist.Builder tier stack here: local store → warm peers →
	// coordinator-sharded fleet build). nil preserves the local path over
	// Store.
	Builder core.BankBuilder
	// Workers bounds concurrently executing runs (default 2).
	Workers int
	// QueueDepth bounds queued-but-not-running runs; a full queue rejects
	// submissions with ErrQueueFull (default 64).
	QueueDepth int
	// TTL is how long terminal runs stay fetchable and dedupable
	// (0 = default 15m; negative = retain forever).
	TTL time.Duration
	// SessionIdleTTL reaps ask/tell sessions untouched for this long
	// (0 = DefaultSessionIdleTTL; negative = never reap).
	SessionIdleTTL time.Duration
	// MaxSessions bounds concurrently retained sessions
	// (0 = DefaultMaxSessions).
	MaxSessions int
	// Scales maps scale name → suite configuration
	// (default {"quick": exper.Quick(), "full": exper.Default()}).
	Scales map[string]exper.Config

	// Journal, when set, makes the run lifecycle durable: admissions,
	// starts, and terminal transitions are journaled, recovered runs are
	// re-admitted by NewManager, and graceful shutdown parks queued runs
	// (still journaled as queued) instead of cancelling them. The manager
	// takes ownership and closes it after Shutdown drains.
	Journal *RunJournal
	// ShedColdFraction enables shed-by-class admission control: once the
	// queue holds at least ShedColdFraction × QueueDepth runs, submissions
	// that would require a cold bank build are rejected with ErrShedCold
	// while warm-cache submissions keep flowing. <= 0 disables shedding.
	ShedColdFraction float64

	// ExecDelay is a fault-injection hook: each run's execution is padded
	// by this duration before the tuner starts. Oracle-backed runs finish
	// in microseconds, so crash/load harnesses (tools/crash_smoke.sh) set
	// this to hold a realistic mix of done/running/queued runs in flight
	// at kill time. Zero (the default) adds nothing.
	ExecDelay time.Duration

	// Log receives run-lifecycle events as structured lines (nil = silent).
	Log *slog.Logger

	// execGate, when set, is called by a worker immediately before a run
	// executes. Test hook: lets shutdown tests hold a run in-flight
	// deterministically.
	execGate func(*Run)
}

// traceCap is how many finished-run traces a manager retains.
const traceCap = 1024

// Manager owns the run lifecycle: it validates and keys submissions,
// deduplicates them through the registry, and executes them on a bounded
// worker pool. All runs of one scale share one exper.Suite, so populations,
// the shared config pool, and banks are built once and reused; the suites in
// turn share Options.Store, whose singleflight GetOrBuild collapses
// concurrent bank builds across runs.
type Manager struct {
	opts     Options
	reg      *Registry
	sessions *SessionRegistry
	log      *slog.Logger

	// metrics is this manager's registry (per-manager, not process-global:
	// tests run several managers per process). NewServer's /metrics endpoint
	// serves it; the core package registry is attached so oracle trial
	// series appear alongside the serving ones. The counters and gauges
	// below are the run counts themselves, each one series.
	metrics                                         *obs.Registry
	admitted, started, completed, failed, cancelled *obs.Counter
	deduped, recovered, parked, shed, grows         *obs.Counter
	active, queued                                  *obs.Gauge
	queueWaitSec, execSec, journalSec               *obs.Histogram

	// traces retains run timelines for GET /v1/runs/{id}/trace, keyed by
	// run ID, bounded FIFO at traceCap.
	traces *obs.TraceStore

	queue chan *Run
	wg    sync.WaitGroup // worker goroutines

	mu        sync.Mutex
	suites    map[string]*exper.Suite
	closed    bool
	drainDone chan struct{} // created by the first Shutdown, closed when drained

	janitorStop chan struct{}
}

// NewManager starts a manager (worker pool and TTL janitor included).
func NewManager(opts Options) *Manager {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.TTL == 0 {
		opts.TTL = 15 * time.Minute
	}
	if opts.SessionIdleTTL == 0 {
		opts.SessionIdleTTL = DefaultSessionIdleTTL
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.DiscardHandler)
	}
	if opts.Scales == nil {
		opts.Scales = map[string]exper.Config{
			"quick": exper.Quick(),
			"full":  exper.Default(),
		}
	}
	m := &Manager{
		opts:        opts,
		reg:         NewRegistry(opts.TTL),
		sessions:    NewSessionRegistry(opts.SessionIdleTTL, opts.MaxSessions),
		log:         opts.Log.With("component", "serve"),
		metrics:     obs.NewRegistry(),
		traces:      obs.NewTraceStore(traceCap),
		suites:      map[string]*exper.Suite{},
		janitorStop: make(chan struct{}),
	}
	reg := m.metrics
	m.admitted = reg.Counter("runs_admitted_total",
		"Runs accepted past admission control (dedups, sheds, and rejections excluded).")
	m.started = reg.Counter("runs_started_total", "Runs whose execution started.")
	m.completed = reg.Counter("runs_completed_total", "Runs finished in state done.")
	m.failed = reg.Counter("runs_failed_total", "Runs finished in state failed.")
	m.cancelled = reg.Counter("runs_cancelled_total", "Runs cancelled at shutdown.")
	m.deduped = reg.Counter("runs_deduped_total", "Submissions absorbed by an identical run.")
	m.recovered = reg.Counter("runs_recovered_total", "Non-terminal runs re-admitted from the journal.")
	m.parked = reg.Counter("runs_parked_total", "Queued runs parked at shutdown.")
	m.shed = reg.Counter("runs_shed_cold_total", "Cold-bank submissions shed under pressure.")
	m.active = reg.Gauge("runs_active", "Runs currently executing.")
	m.queued = reg.Gauge("runs_queued", "Runs waiting for a worker.")
	m.grows = reg.Counter("bank_grow_total", "Successful bank grow operations.")
	m.queueWaitSec = reg.Histogram("run_queue_wait_seconds",
		"Seconds a run waited between admission and execution start.", nil)
	m.execSec = reg.Histogram("run_exec_seconds",
		"Seconds executing one run (bank acquisition + trial loop + encode).", nil)
	m.journalSec = reg.Histogram("journal_append_seconds",
		"Seconds appending one durable submit record.", nil)
	// Fold in the core package's oracle trial instruments so one scrape of
	// this manager's server answers both serving and hot-path questions.
	reg.Attach(core.Metrics())
	// Replay the journal before anything executes: terminal runs come back
	// with their cached response bytes, non-terminal ones re-enter the queue.
	// The queue is sized to hold every recovered run on top of QueueDepth, so
	// re-admission can never block or shed work the daemon already accepted.
	pending := m.restoreFromJournal()
	m.queue = make(chan *Run, opts.QueueDepth+len(pending))
	for _, run := range pending {
		m.queue <- run
		m.queued.Add(1)
		m.recovered.Inc()
	}
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	go m.janitor()
	return m
}

// restoreFromJournal folds the journal's recovered runs into the registry
// and returns the non-terminal ones in submission order for re-admission.
// A recovered run whose method no longer resolves (the binary changed
// between boots) fails visibly instead of disappearing.
func (m *Manager) restoreFromJournal() []*Run {
	jr := m.opts.Journal
	if jr == nil {
		return nil
	}
	var pending []*Run
	for _, rr := range jr.Recovered() {
		treq, terr := tuneRequest(rr.Request)
		run := recoverRun(rr, treq)
		m.reg.Restore(run)
		switch {
		case rr.State.Terminal():
			// Fully reconstructed; nothing to do.
		case terr != nil:
			m.failed.Inc()
			run.finish(StateFailed, nil, fmt.Sprintf("recovery: %v", terr), time.Now())
			m.journalTerminal(run)
		default:
			pending = append(pending, run)
		}
	}
	return pending
}

// Registry exposes the run store (handlers read it).
func (m *Manager) Registry() *Registry { return m.reg }

// Sessions exposes the session store (handlers read it).
func (m *Manager) Sessions() *SessionRegistry { return m.sessions }

// Store returns the shared bank cache (nil when none).
func (m *Manager) Store() *core.BankStore { return m.opts.Store }

// Journal returns the durability journal (nil when the daemon runs without
// one); handlers surface its stats at /metrics and /healthz.
func (m *Manager) Journal() *RunJournal { return m.opts.Journal }

// ScaleNames returns the accepted scale names, sorted small-to-large by
// convention ("quick" before "full" when both exist).
func (m *Manager) ScaleNames() []string {
	names := make([]string, 0, len(m.opts.Scales))
	if _, ok := m.opts.Scales["quick"]; ok {
		names = append(names, "quick")
	}
	for name := range m.opts.Scales {
		if name != "quick" {
			names = append(names, name)
		}
	}
	return names
}

// suiteFor lazily creates the shared suite for a scale.
func (m *Manager) suiteFor(scale string) (*exper.Suite, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.suites[scale]; ok {
		return s, nil
	}
	cfg, ok := m.opts.Scales[scale]
	if !ok {
		return nil, fmt.Errorf("%w: unknown scale %q", ErrBadRequest, scale)
	}
	s := exper.NewSuite(cfg)
	s.SetStore(m.opts.Store)
	if m.opts.Builder != nil {
		s.SetBuilder(m.opts.Builder)
	}
	m.suites[scale] = s
	return s, nil
}

// RetryAfterSeconds derives the Retry-After value for 503 responses from
// the manager's actual state instead of a constant: during drain the answer
// is "come back after a restart window"; under backpressure it estimates
// how long the backlog needs to clear one slot, assuming runs take on the
// order of a second each (quick-scale warm runs are much faster, cold
// full-scale ones slower — the estimate only needs the right magnitude for
// a polite client backoff).
func (m *Manager) RetryAfterSeconds() int {
	if m.draining() {
		return 30
	}
	sec := 1 + int(m.queued.Value())/m.opts.Workers
	if sec > 60 {
		sec = 60
	}
	return sec
}

// Submit validates, keys, and enqueues one run request. created is false
// when an identical live or retained run absorbed the submission (the dedup
// path — no new work is scheduled). Errors wrap ErrBadRequest, ErrQueueFull,
// or ErrShuttingDown.
func (m *Manager) Submit(req client.RunRequest) (run *Run, created bool, err error) {
	normalizeRun(&req)
	// %w on both operands: the HTTP layer branches on ErrBadRequest for the
	// status family and on the inner apiError for the envelope code.
	if err := validateRun(req, m.ScaleNames()); err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	treq, err := tuneRequest(req)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrBadRequest, codef(CodeUnknownMethod, "%v", err))
	}
	suite, err := m.suiteFor(req.Scale)
	if err != nil {
		return nil, false, err
	}
	key, err := suite.RunKeyFor(treq)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, ErrShuttingDown
	}
	// Dedup before admission control: an identical live or retained run
	// absorbs the submission without consuming queue capacity or a journal
	// record, so retrying clients coalesce even while new work is being shed.
	if r, ok := m.reg.Lookup(key); ok {
		m.deduped.Inc()
		return r, false, nil
	}
	// Shed by class under pressure: reject the expensive cold-bank class
	// before the warm one. A warm submission clears its worker in roughly a
	// trial's time; a cold one pins it through an entire bank build.
	if f := m.opts.ShedColdFraction; f > 0 &&
		float64(m.queued.Value()) >= f*float64(m.opts.QueueDepth) &&
		m.coldBank(suite, req.Dataset) {
		m.shed.Inc()
		return nil, false, ErrShedCold
	}
	// Capacity check on the counter, not the channel: the channel is
	// over-sized to absorb journal-recovered runs, but new admissions are
	// still bounded by QueueDepth.
	if int(m.queued.Value()) >= m.opts.QueueDepth {
		return nil, false, ErrQueueFull
	}
	run, created = m.reg.GetOrCreate(key, req, treq)
	if !created {
		m.deduped.Inc()
		return run, false, nil
	}
	// Admission is where a run's trace is born: every later span (queue
	// wait, bank tiers, trials, encode) lands on this timeline, retained
	// under the run ID for GET /v1/runs/{id}/trace.
	run.trace = obs.NewTrace(obs.NewTraceID())
	m.traces.Put(run.ID, run.trace)
	// Durability point: the submit record is on disk before the run is
	// queued or acknowledged — once a client holds a 202, a crash cannot
	// lose the run. Capacity was checked above under m.mu (which serializes
	// every enqueuer), so this send cannot block.
	if jr := m.opts.Journal; jr != nil {
		jstart := time.Now()
		err := jr.recordSubmit(m.reg, run)
		jdur := time.Since(jstart)
		m.journalSec.Observe(jdur.Seconds())
		run.trace.AddSpan("journal.append", jstart, jdur)
		if err != nil {
			m.reg.Remove(run)
			if errors.Is(err, journal.ErrBudget) {
				return nil, false, ErrJournalFull
			}
			return nil, false, fmt.Errorf("journal submit: %w", err)
		}
	}
	m.queue <- run
	m.queued.Add(1)
	m.admitted.Inc()
	m.log.Debug("run admitted", "run", run.ID, "trace", run.trace.ID(),
		"dataset", req.Dataset, "method", req.Method, "scale", req.Scale)
	return run, true, nil
}

// Metrics returns the manager's metrics registry (the /metrics endpoint
// source, core package series attached).
func (m *Manager) Metrics() *obs.Registry { return m.metrics }

// TraceFor returns the retained trace for a run ID, if any.
func (m *Manager) TraceFor(runID string) (*obs.Trace, bool) { return m.traces.Get(runID) }

// coldBank reports whether executing a run against dataset would require
// training a bank: not yet resolved in the suite and not present in the
// shared store. Both probes are cheap (a map lookup and a stat) — neither
// triggers a build.
func (m *Manager) coldBank(suite *exper.Suite, dataset string) bool {
	if suite.BankReady(dataset) {
		return false
	}
	return !m.opts.Store.Has(suite.BankKeyFor(dataset))
}

// worker executes queued runs until the queue closes. During shutdown the
// remaining queued runs drain without executing: with a journal they are
// parked — still queued on disk, re-admitted next boot — and without one
// they are cancelled (the pre-journal behavior, since nothing would ever
// pick them up again).
func (m *Manager) worker() {
	defer m.wg.Done()
	for run := range m.queue {
		m.queued.Add(-1)
		if m.draining() {
			if m.opts.Journal != nil {
				m.parked.Inc()
				run.park()
				continue
			}
			m.cancelled.Inc()
			run.finish(StateCancelled, nil, "server shutting down before run started", time.Now())
			continue
		}
		m.execute(run)
	}
}

func (m *Manager) draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// execute runs one job end to end. RunTune recovers driver panics into
// errors, so a poisoned request fails its own run instead of killing the
// worker.
func (m *Manager) execute(run *Run) {
	if gate := m.opts.execGate; gate != nil {
		gate(run)
	}
	m.started.Inc()
	m.active.Add(1)
	defer m.active.Add(-1)
	now := time.Now()
	// Queue wait spans admission to execution start. Recovered runs keep
	// their original created time, so after a crash this honestly includes
	// the outage (their trace, though, died with the old process).
	wait := now.Sub(run.created)
	m.queueWaitSec.Observe(wait.Seconds())
	run.trace.AddSpan("queue.wait", run.created, wait)
	run.start(now)
	// Best-effort: losing a start record only costs the recovered run its
	// "running" label — it is re-admitted as queued either way.
	if jr := m.opts.Journal; jr != nil {
		_ = jr.recordStart(m.reg, run, now)
	}

	if d := m.opts.ExecDelay; d > 0 {
		time.Sleep(d)
	}

	suite, err := m.suiteFor(run.Req.Scale)
	if err != nil {
		m.finishRun(run, StateFailed, nil, err.Error(), now)
		return
	}
	ctx := obs.WithTrace(context.Background(), run.trace)
	res, err := suite.RunTuneCtx(ctx, run.treq, run.trial)
	if err != nil {
		m.finishRun(run, StateFailed, nil, err.Error(), now)
		return
	}
	m.finishRun(run, StateDone, res, "", now)
}

// finishRun drives a run to its terminal state, recording the response.encode
// span (finish marshals the terminal body exactly once), the execution
// histogram, and the terminal journal record.
func (m *Manager) finishRun(run *Run, state State, res *exper.TuneResult, errMsg string, started time.Time) {
	if state == StateDone {
		m.completed.Inc()
	} else {
		m.failed.Inc()
	}
	encStart := time.Now()
	run.finish(state, res, errMsg, encStart)
	run.trace.AddSpan("response.encode", encStart, time.Since(encStart))
	m.execSec.Observe(time.Since(started).Seconds())
	m.journalTerminal(run)
	if state == StateFailed {
		m.log.Warn("run failed", "run", run.ID, "err", errMsg)
	} else {
		m.log.Debug("run done", "run", run.ID, "wall", time.Since(started))
	}
}

// journalTerminal records a terminal transition and opportunistically
// compacts. Best-effort: a lost terminal record means the run re-executes
// after a crash — wasteful but correct, since re-execution is deterministic
// and the client-visible result is identical.
func (m *Manager) journalTerminal(run *Run) {
	jr := m.opts.Journal
	if jr == nil {
		return
	}
	if err := jr.recordTerminal(m.reg, run); err != nil {
		jr.log.Warn("journal terminal record failed", "run", run.ID, "err", err)
	}
	if err := jr.maybeCompact(m.reg); err != nil {
		jr.log.Warn("journal compact failed", "trigger", "terminal", "err", err)
	}
}

// janitor sweeps the registry so TTL eviction happens even on an idle
// daemon (accesses also sweep; this bounds retention between accesses).
func (m *Manager) janitor() {
	interval := m.opts.TTL / 4
	if interval <= 0 {
		return
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.reg.Sweep()
			m.sessions.Sweep()
			if jr := m.opts.Journal; jr != nil {
				// Compact after the sweep so evicted runs leave the
				// snapshot too — journal growth tracks retention, not
				// lifetime traffic.
				if err := jr.maybeCompact(m.reg); err != nil {
					jr.log.Warn("journal compact failed", "trigger", "janitor", "err", err)
				}
			}
		case <-m.janitorStop:
			return
		}
	}
}

// GrowBank extends the served bank whose spec-level content address is key
// by add freshly sampled configs (exper.Suite.GrowBank) and reports the
// advanced address. The key must belong to a bank some scale's suite has
// already resolved — growing a bank that was never built would have to
// cold-build it first, which is the run path's job, not the grow endpoint's.
// A key matching no resolved bank wraps ErrUnknownBank. Training stops, and
// the bank stays as it was, once ctx is done.
func (m *Manager) GrowBank(ctx context.Context, key string, add int) (exper.GrowResult, error) {
	m.mu.Lock()
	suites := make([]*exper.Suite, 0, len(m.suites))
	for _, s := range m.suites {
		suites = append(suites, s)
	}
	m.mu.Unlock()
	for _, s := range suites {
		for _, ds := range exper.DatasetNames {
			if !s.BankReady(ds) || s.BankKeyFor(ds) != key {
				continue
			}
			_, res, err := s.GrowBankCtx(ctx, ds, add)
			if err != nil {
				return exper.GrowResult{}, err
			}
			m.grows.Inc()
			return res, nil
		}
	}
	return exper.GrowResult{}, fmt.Errorf("%w: %q", ErrUnknownBank, key)
}

// BankBuilds reports how many banks the manager's suites actually trained
// (cache hits excluded) — the number the dedup/caching tests pin to 1.
func (m *Manager) BankBuilds() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, s := range m.suites {
		n += s.BankBuilds()
	}
	return n
}

// Shutdown drains the manager gracefully: no new submissions are accepted,
// queued runs are cancelled, and in-flight runs are given until ctx expires
// to complete. It returns ctx.Err() if draining did not finish in time (the
// affected runs keep executing; their results are simply not awaited).
// Concurrent and repeated calls all wait on the same drain — nil is only
// ever returned once draining has actually finished.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
		close(m.janitorStop)
		m.drainDone = make(chan struct{})
		go func(done chan struct{}) {
			// Sessions close first: each Close waits for its driver
			// goroutine, so after drain nothing references the suites.
			m.sessions.CloseAll()
			m.wg.Wait()
			// Workers are gone, so no more appends: compact the journal to
			// a tidy snapshot (terminal results plus parked queued runs)
			// and close it. The parked runs are re-admitted next boot.
			if jr := m.opts.Journal; jr != nil {
				if err := jr.maybeCompact(m.reg); err != nil {
					jr.log.Warn("journal compact failed", "trigger", "shutdown", "err", err)
				}
				if err := jr.Close(); err != nil {
					jr.log.Warn("journal close failed", "err", err)
				}
			}
			close(done)
		}(m.drainDone)
	}
	done := m.drainDone
	m.mu.Unlock()

	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
