// Command noisyworker is the worker daemon of a noisyeval cluster: it pulls
// bank-build shard jobs from a coordinator (noisyevald -cluster, or
// figures -cluster-addr), trains its config ranges with the exact code path
// a local build uses, and uploads byte-identical shards.
//
// Usage:
//
//	noisyworker -coordinator http://host:8723 -addr :8724
//
//	curl -s localhost:8724/healthz      # liveness + coordinator URL
//	curl -s localhost:8724/metrics      # Prometheus exposition (train histogram, lease/shard counters)
//
// SIGINT/SIGTERM drain gracefully: the shard in flight finishes and uploads
// before the process exits, so its lease never has to expire.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"noisyeval/internal/dist"
	"noisyeval/internal/obs"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://127.0.0.1:8723", "coordinator base URL")
		addr        = flag.String("addr", ":8724", "health/metrics listen address (empty = none)")
		name        = flag.String("name", "", "worker identity in leases and stats (default host-pid)")
		poll        = flag.Duration("poll", 500*time.Millisecond, "idle re-lease interval")
		jobs        = flag.Int("jobs", 0, "per-shard training parallelism (0 = GOMAXPROCS)")
		pprofAddr   = flag.String("pprof-addr", "", "listen address for net/http/pprof profiling endpoints (empty = disabled)")
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

	w := dist.NewWorker(dist.WorkerOptions{
		Coordinator: *coordinator,
		Name:        *name,
		Poll:        *poll,
		Workers:     *jobs,
	})
	logger.Info("pulling shard jobs", "worker", w.Name(), "coordinator", *coordinator)

	start := time.Now()
	if *addr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("Content-Type", "application/json")
			json.NewEncoder(rw).Encode(map[string]any{
				"status":      "ok",
				"worker":      w.Name(),
				"coordinator": *coordinator,
				"uptime":      time.Since(start).Round(time.Millisecond).String(),
			})
		})
		mux.Handle("GET /metrics", w.Metrics())
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fatal("listen", "err", err)
		}
		logger.Info("serving health and metrics", "addr", ln.Addr())
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go srv.Serve(ln)
		defer srv.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := w.Run(ctx)
	count := func(name string) int64 { return w.Metrics().Counter(name, "").Value() }
	logger.Info("drained", "shards_built", count("worker_shards_built_total"),
		"shards_failed", count("worker_shards_failed_total"), "leases", count("worker_leases_total"),
		"bytes_uploaded", count("worker_bytes_uploaded_total"))
	if err != nil && err != context.Canceled {
		fatal("worker", "err", err)
	}
}
