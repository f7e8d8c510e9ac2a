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
	"fmt"
	"log"
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
	log.SetFlags(0)
	log.SetPrefix("noisyworker: ")

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
	if *pprofAddr != "" {
		if _, err := obs.ServePprof(*pprofAddr, logger); err != nil {
			log.Fatal(err)
		}
	}

	metrics := obs.NewRegistry()
	w := dist.NewWorker(dist.WorkerOptions{
		Coordinator: *coordinator,
		Name:        *name,
		Poll:        *poll,
		Workers:     *jobs,
		Metrics:     metrics,
	})
	log.Printf("worker %s pulling from %s", w.Name(), *coordinator)

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
		mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			metrics.WritePrometheus(rw)
		})
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("health/metrics on %s", ln.Addr())
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go srv.Serve(ln)
		defer srv.Close()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := w.Run(ctx)
	c := w.Counters()
	log.Printf("drained: %d shards built, %d failed, %d leases, %s uploaded",
		c.ShardsBuilt, c.ShardsFailed, c.Leases, fmtBytes(c.BytesUploaded))
	if err != nil && err != context.Canceled {
		log.Fatal(err)
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
