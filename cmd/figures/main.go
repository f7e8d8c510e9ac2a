// Command figures regenerates every table and figure of the paper's
// evaluation, writing a text rendering and a CSV per experiment into the
// output directory. Drivers run concurrently on a bounded worker pool; bank
// construction is deduplicated, demand-driven, and (with -cache-dir)
// content-addressed on disk, so repeated runs reuse banks instead of
// retraining.
//
// Usage:
//
//	figures -quick                       # miniature banks, seconds
//	figures                              # figure-scale banks (minutes)
//	figures -only figure3,figure9        # subset
//	figures -cache-dir .cache/banks      # content-addressed bank cache
//	figures -jobs 4                      # bound driver/bank concurrency
//	figures -banks results/banks         # reuse banks built by cmd/bank
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/dist"
	"noisyeval/internal/exper"
	"noisyeval/internal/plot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	var (
		quick         = flag.Bool("quick", false, "miniature configuration (tests-scale)")
		outDir        = flag.String("out", "results", "output directory")
		only          = flag.String("only", "", "comma-separated subset of experiment ids")
		banks         = flag.String("banks", "", "directory of pre-built <dataset>.bank files to reuse")
		cacheDir      = flag.String("cache-dir", "", "content-addressed bank cache directory (reused across runs)")
		cacheMaxBytes = flag.Int64("cache-max-bytes", 0, "bank cache size bound: LRU entries are pruned past it (0 = unlimited)")
		jobs          = flag.Int("jobs", 0, "max concurrent drivers/bank builds (0 = GOMAXPROCS)")
		seed          = flag.Uint64("seed", 1, "RNG seed")
		verbose       = flag.Bool("v", false, "log per-task scheduler events")
		clusterAddr   = flag.String("cluster-addr", "", "listen address for an embedded dist coordinator: bank builds shard across noisyworker processes pulling from it")
		shardConfigs  = flag.Int("shard-configs", 8, "cluster mode: config indices per shard job")
		leaseTTL      = flag.Duration("lease-ttl", 2*time.Minute, "cluster mode: shard lease duration before requeue")
		selfBuild     = flag.Int("self-build", 1, "cluster mode: in-process shard builders (0 = rely entirely on external workers)")
		peersFlag     = flag.String("peers", "", "comma-separated warm-peer base URLs whose /v1/banks/{key} seeds the cache")
	)
	flag.Parse()

	cfg := exper.Default()
	if *quick {
		cfg = exper.Quick()
	}
	cfg.Seed = *seed
	suite := exper.NewSuite(cfg)

	var store *core.BankStore
	if *cacheDir != "" {
		var err error
		store, err = core.NewBankStore(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		store.Log = slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "bankstore")
		suite.SetStore(store)
		log.Printf("bank cache at %s", store.Dir())
		core.BoundCache(store, *cacheMaxBytes)
	}

	var peers []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}
	if *clusterAddr != "" {
		coord := dist.NewCoordinator(dist.CoordinatorOptions{
			Store:        store,
			ShardConfigs: *shardConfigs,
			LeaseTTL:     *leaseTTL,
			SelfBuild:    *selfBuild,
			Workers:      *jobs,
		})
		defer coord.Close()
		mux := http.NewServeMux()
		coord.Register(mux)
		mux.Handle("GET /metrics", coord.Metrics())
		ln, err := net.Listen("tcp", *clusterAddr)
		if err != nil {
			log.Fatal(err)
		}
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go srv.Serve(ln)
		defer srv.Close()
		suite.SetBuilder(&dist.Builder{Store: store, Peers: peers, Coord: coord})
		log.Printf("cluster coordinator on %s (shard-configs=%d self-build=%d)", ln.Addr(), *shardConfigs, *selfBuild)
	} else if len(peers) > 0 {
		suite.SetBuilder(&dist.Builder{Store: store, Peers: peers})
		log.Printf("peer read-through from %s", strings.Join(peers, ", "))
	}

	if *banks != "" {
		for _, name := range exper.DatasetNames {
			path := filepath.Join(*banks, name+".bank")
			b, err := core.LoadBank(path)
			if err != nil {
				log.Printf("skipping %s: %v", path, err)
				continue
			}
			suite.SetBank(name, b)
			log.Printf("loaded %s (%d configs, %d clients)", path, len(b.Configs), b.NumClients())
		}
	}

	selected := exper.FigureOrder()
	if *only != "" {
		selected = strings.Split(*only, ",")
	}
	jobList, err := exper.JobsByID(selected)
	if err != nil {
		log.Fatalf("%v (known: %s)", err, strings.Join(exper.FigureOrder(), ", "))
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	sch := exper.Scheduler{Jobs: *jobs}
	if *verbose {
		sch.OnEvent = func(e exper.Event) {
			switch e.Kind {
			case exper.TaskStart:
				log.Printf("start %s", e.Task)
			case exper.TaskDone:
				log.Printf("done  %s (%s)", e.Task, e.Elapsed.Round(time.Millisecond))
			case exper.TaskError:
				log.Printf("FAIL  %s (%s): %v", e.Task, e.Elapsed.Round(time.Millisecond), e.Err)
			case exper.TaskSkip:
				log.Printf("skip  %s (cancelled)", e.Task)
			}
		}
	}

	start := time.Now()
	results, runErr := sch.Run(suite, jobList)

	// Write every experiment that completed, even when a later driver
	// failed — hours of finished figure-scale work must not be discarded
	// because one driver panicked. Cancelled drivers have a zero Result.
	wrote := 0
	for _, res := range results {
		if res.ID == "" {
			continue
		}
		wrote++
		txtPath := filepath.Join(*outDir, res.ID+".txt")
		if err := os.WriteFile(txtPath, []byte(res.Title+"\n\n"+res.Text()), 0o644); err != nil {
			log.Fatal(err)
		}
		csvPath := filepath.Join(*outDir, res.ID+".csv")
		if err := plot.WriteCSV(csvPath, res.CSVHeader, res.CSVRows); err != nil {
			log.Fatal(err)
		}
		log.Printf("%-9s -> %s, %s", res.ID, txtPath, csvPath)
		fmt.Println(res.Title)
		fmt.Println(res.Text())
	}

	log.Printf("%d/%d experiments in %s; banks trained: %d", wrote, len(results),
		time.Since(start).Round(time.Millisecond), suite.BankBuilds())
	if store != nil {
		st := store.Stats()
		log.Printf("bank cache: %d hits, %d misses, %d stored, %d evicted (corrupt or pruned)",
			st.Hits, st.Misses, st.Builds, st.Evicted)
	}
	if runErr != nil {
		log.Fatal(runErr)
	}
}
