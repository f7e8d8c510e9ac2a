// Command noisyevald serves federated hyperparameter tuning as a service:
// submit tuning jobs (dataset × method × noise setting) over HTTP, watch
// per-trial progress, fetch summarized results. Identical submissions are
// deduplicated by a content-addressed run key, and all runs share one
// content-addressed bank cache, so the expensive train-once artifacts are
// built at most once per content address across the daemon's lifetime.
//
// Usage:
//
//	noisyevald -addr :8723 -cache-dir ~/.cache/noisyeval-banks
//	noisyevald -cluster -cache-dir ~/.cache/noisyeval-banks   # + noisyworker fleet
//
//	curl -s localhost:8723/healthz
//	curl -s -X POST localhost:8723/v1/runs -d '{"dataset":"cifar10","method":"rs","trials":8,"noise":{"sample_count":3}}'
//	curl -s localhost:8723/v1/runs/run-000001
//	curl -sN localhost:8723/v1/runs/run-000001/events
//	curl -s localhost:8723/v1/methods
//	curl -s -X POST localhost:8723/v1/sessions -d '{"dataset":"cifar10","method":"sha"}'
//	curl -s -X POST localhost:8723/v1/sessions/sess-000001/ask
//	curl -s -X POST localhost:8723/v1/sessions/sess-000001/tell -d '{"answers":[{"ask_id":0}]}'
//	curl -s localhost:8723/v1/banks
//	curl -s localhost:8723/v1/runs/run-000001/trace
//	curl -s localhost:8723/metrics
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight runs drain, then the
// listener closes. With -journal-dir the run lifecycle is durable: queued
// runs are parked in the journal (re-admitted on the next boot) instead of
// cancelled, finished results survive restarts, and after a crash the daemon
// replays the journal — terminal runs serve their cached results, interrupted
// ones re-execute deterministically. Without a journal, queued runs are
// cancelled at shutdown as before.
package main

import (
	"context"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/dist"
	"noisyeval/internal/obs"
	"noisyeval/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", ":8723", "listen address")
		cacheDir      = flag.String("cache-dir", os.Getenv("NOISYEVAL_CACHE_DIR"), "content-addressed bank cache directory (default $NOISYEVAL_CACHE_DIR)")
		cacheMaxBytes = flag.Int64("cache-max-bytes", 0, "bank cache size bound: LRU entries are pruned past it (0 = unlimited)")
		workers       = flag.Int("workers", 2, "max concurrently executing runs")
		queueDepth    = flag.Int("queue", 64, "max queued runs before submissions get 503")
		runTTL        = flag.Duration("run-ttl", 15*time.Minute, "how long finished runs stay fetchable and dedupable (negative = forever)")
		sessionTTL    = flag.Duration("session-ttl", serve.DefaultSessionIdleTTL, "idle time before ask/tell sessions are reaped (negative = never)")
		maxSessions   = flag.Int("max-sessions", serve.DefaultMaxSessions, "max concurrently open ask/tell sessions")
		drainTimeout  = flag.Duration("drain-timeout", 2*time.Minute, "graceful-shutdown budget for draining in-flight runs")
		cluster       = flag.Bool("cluster", false, "mount dist coordinator endpoints and shard bank builds across noisyworker processes")
		shardConfigs  = flag.Int("shard-configs", 8, "cluster mode: config indices per shard job")
		leaseTTL      = flag.Duration("lease-ttl", 2*time.Minute, "cluster mode: shard lease duration before requeue")
		selfBuild     = flag.Int("self-build", 1, "cluster mode: in-process shard builders (0 = rely entirely on external workers)")
		peersFlag     = flag.String("peers", "", "comma-separated warm-peer base URLs whose /v1/banks/{key} seeds this daemon's cache")
		journalDir    = flag.String("journal-dir", os.Getenv("NOISYEVAL_JOURNAL_DIR"), "run journal directory: makes the run lifecycle durable across crashes and restarts (default $NOISYEVAL_JOURNAL_DIR; empty = no journal)")
		journalMax    = flag.Int64("journal-max-bytes", 0, "journal byte budget across snapshot+WAL; exhausted budget 503s new submissions (0 = 64 MiB, negative = unlimited)")
		journalComp   = flag.Int64("journal-compact-bytes", 0, "WAL size that triggers background compaction into a snapshot (0 = budget/4)")
		shedThreshold = flag.Float64("shed-threshold", 0, "shed cold-bank submissions once the queue holds this fraction of -queue (e.g. 0.5; <= 0 disables shedding)")
		execDelay     = flag.Duration("exec-delay", 0, "fault injection: pad every run's execution by this duration so crash/load harnesses can catch runs in flight (0 = off)")
		mmapBanks     = flag.Bool("mmap-banks", false, "serve cached banks zero-copy from mmap'd files instead of decoding to heap (requires -cache-dir)")
		mmapWarm      = flag.Bool("mmap-warm", false, "pre-touch each mapped bank at open (madvise + page walk) so first-sweep reads pay no major faults (requires -mmap-banks)")
		pprofAddr     = flag.String("pprof-addr", "", "listen address for net/http/pprof profiling endpoints (empty = disabled)")
	)
	var logLevel slog.Level
	flag.TextVar(&logLevel, "log-level", slog.LevelInfo, "structured log level: debug|info|warn|error")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel}))
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *pprofAddr != "" {
		if _, err := obs.ServePprof(*pprofAddr, logger); err != nil {
			fatal("pprof listener", "err", err)
		}
	}

	var store *core.BankStore
	if *cacheDir != "" {
		var err error
		store, err = core.NewBankStore(*cacheDir)
		if err != nil {
			fatal("bank cache", "err", err)
		}
		store.Log = logger.With("component", "bankstore")
		logger.Info("bank cache", "dir", store.Dir(), "max_bytes", *cacheMaxBytes)
		core.BoundCache(store, *cacheMaxBytes)
		if *mmapBanks {
			store.SetMapped(true)
			store.SetMappedWarm(*mmapWarm)
			logger.Info("bank cache mmap mode: banks served zero-copy", "warm", *mmapWarm)
		} else if *mmapWarm {
			fatal("-mmap-warm requires -mmap-banks")
		}
	} else {
		if *mmapBanks {
			fatal("-mmap-banks requires -cache-dir")
		}
		if *mmapWarm {
			fatal("-mmap-warm requires -mmap-banks")
		}
		logger.Info("no -cache-dir: banks rebuilt per daemon lifetime (in-memory suite cache only)")
	}

	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}

	// Cluster mode: a coordinator shards every cold bank build into leased
	// jobs; the manager's suites build through the dist tier stack (store →
	// peers → fleet). Without -cluster but with -peers, the daemon still
	// read-throughs warm peers before training locally.
	var coord *dist.Coordinator
	var builder core.BankBuilder
	if *cluster {
		coord = dist.NewCoordinator(dist.CoordinatorOptions{
			Store:        store,
			ShardConfigs: *shardConfigs,
			LeaseTTL:     *leaseTTL,
			SelfBuild:    *selfBuild,
		})
		defer coord.Close()
		builder = &dist.Builder{Store: store, Peers: peers, Coord: coord}
		logger.Info("cluster mode", "shard_configs", *shardConfigs, "lease_ttl", *leaseTTL,
			"self_build", *selfBuild, "peers", len(peers))
	} else if len(peers) > 0 {
		builder = &dist.Builder{Store: store, Peers: peers}
		logger.Info("peer read-through", "peers", strings.Join(peers, ","))
	}

	var journal *serve.RunJournal
	if *journalDir != "" {
		var err error
		journal, err = serve.OpenRunJournal(serve.JournalOptions{
			Dir:             *journalDir,
			MaxBytes:        *journalMax,
			CompactWALBytes: *journalComp,
			Log:             logger.With("component", "journal"),
		})
		if err != nil {
			fatal("run journal", "err", err)
		}
		st := journal.Stats()
		logger.Info("run journal", "dir", *journalDir, "replayed", st.Replayed,
			"recovered", len(journal.Recovered()), "torn_tails", st.TornTails, "dropped", journal.Dropped())
	} else {
		logger.Info("no -journal-dir: run lifecycle is in-memory only (queued runs are lost on crash or shutdown)")
	}

	mgr := serve.NewManager(serve.Options{
		Store:            store,
		Builder:          builder,
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		TTL:              *runTTL,
		SessionIdleTTL:   *sessionTTL,
		MaxSessions:      *maxSessions,
		Journal:          journal,
		ShedColdFraction: *shedThreshold,
		ExecDelay:        *execDelay,
		Log:              logger,
	})
	daemon := serve.NewDaemon(*addr, mgr)
	if coord != nil {
		mountCoordinator(daemon, coord)
	}
	bound, err := daemon.Listen()
	if err != nil {
		fatal("listen", "err", err)
	}
	logger.Info("serving", "addr", bound, "workers", *workers, "queue", *queueDepth, "run_ttl", *runTTL)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- daemon.Serve() }()

	select {
	case err := <-done:
		if err != nil {
			fatal("serve", "err", err)
		}
	case <-ctx.Done():
		stop()
		logger.Info("signal received; draining", "budget", *drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := daemon.Shutdown(sctx); err != nil {
			fatal("shutdown", "err", err)
		}
		logger.Info("drained cleanly")
	}
}

// mountCoordinator serves the coordinator's work and bank routes beside the
// run API and folds its dist_* series into the daemon's /metrics, so one
// scrape covers the fleet-build plane too.
func mountCoordinator(d *serve.Daemon, coord *dist.Coordinator) {
	coord.Register(d.Server().Mux())
	d.Manager.Metrics().Attach(coord.Metrics())
}
