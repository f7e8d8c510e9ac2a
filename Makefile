# Local runs and CI invoke the same targets (.github/workflows/ci.yml).
#
#   make build       compile everything
#   make lint        gofmt + go vet, plus the no-assembly (arm64) cross-build
#   make lines       non-test, non-blank Go lines per package outside bench/,
#                    and the total (the number a simplicity PR reports)
#   make test        full test suite (bank cache at $(CACHE_DIR))
#   make race        the full test suite under the race detector
#   make examples    build and run the five examples/ programs (the facade's
#                    documented entry points; bank cache at $(CACHE_DIR))
#   make bench       benchmark smoke run -> bench.out + BENCH_smoke.json
#   make bench-json  gated hot-path benchmarks -> BENCH_latest.json
#   make bench-check bench-json + fail on >25% ns/op regression vs
#                    the committed BENCH_baseline.json (tools/benchdiff)
#   make bench-harness vet + short tests of the bench/ module (BENCHMARK.json's
#                    harness; its own go.mod, so `go test ./...` never sees it)
#   make fuzz        short coverage-guided fuzz pass over the five decoders
#                    that read bytes from disk or the wire (bankfmt/v5 bank
#                    image, dist shard upload, run journal, run submission,
#                    trace-span header), the two
#                    certified selections against their references (the
#                    weighted sampler's top-k, the Parzen proposal's argmax)
#                    and their AVX2 kernels against the Go loops, and the
#                    lane-wise exp against math.Exp
#   make figures     quick-scale figure regeneration through the bank cache
#   make profile-figures CPU + allocation profiles of warm quick figure passes
#                    (BenchmarkFiguresWarm at -cpu 1) in $(PROFILE_DIR)
#   make serve       run the noisyevald tuning daemon on $(SERVE_ADDR)
#   make serve-smoke boot noisyevald, drive runs + an ask/tell session via pkg/client
#                    end to end, shut down gracefully (used by CI)
#   make cluster-smoke boot a coordinator + two noisyworker processes, build
#                    quick banks cold through sharded fleet leases (both
#                    workers must train shards), re-run warm with 0 builds
#   make crash-smoke boot noisyevald with a run journal, load it via
#                    tools/loadgen, kill -9 mid-flight (torn WAL tail
#                    included), restart, assert zero lost runs and results
#                    identical to an uninterrupted reference daemon

GO             ?= go
CACHE_DIR      ?= $(HOME)/.cache/noisyeval-banks
SERVE_ADDR     ?= 127.0.0.1:8723
PROFILE_DIR    ?= profiles

.PHONY: build lint lines test race examples bench bench-json bench-check bench-harness fuzz figures profile-figures serve serve-smoke cluster-smoke crash-smoke clean

build:
	$(GO) build ./...

lint:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt needed:" $$fmt; exit 1; fi
	$(GO) vet ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/cpu ./internal/tensor ./internal/opt ./internal/nn ./internal/fl ./internal/hpo ./internal/rng

# Comments count, blank lines and _test.go files do not; bench/ is the
# benchmark's own module and is left out.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 awk 'NF { d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++ } END { for (d in n) printf "%6d %s\n", n[d], d }' \
		| sort -k2 | awk '{ print; t += $$1 } END { printf "%6d total\n", t }'

test: build
	NOISYEVAL_CACHE_DIR=$(CACHE_DIR) $(GO) test ./...

race:
	NOISYEVAL_CACHE_DIR=$(CACHE_DIR) $(GO) test -race ./...

examples:
	@for d in examples/*/; do echo "== $$d"; NOISYEVAL_CACHE_DIR=$(CACHE_DIR) $(GO) run ./$$d || exit 1; done

bench:
	NOISYEVAL_CACHE_DIR=$(CACHE_DIR) $(GO) test -bench=. -benchtime=1x -run '^$$' . | tee bench.out
	$(GO) run ./tools/bench2json < bench.out > BENCH_smoke.json

# The gated benchmarks run at a real -benchtime (unlike the 1x smoke pass)
# so their ns/op is stable enough to diff against the committed baseline.
bench-json:
	NOISYEVAL_CACHE_DIR=$(CACHE_DIR) $(GO) test -bench 'BenchmarkFederatedRound$$|BenchmarkBankBuild$$|BenchmarkBankOpenMmap$$|BenchmarkOracleTrials$$|BenchmarkOracleTrialsMapped$$|BenchmarkOracleEvaluateMulti$$|BenchmarkOracleEvaluateMultiBiased$$|BenchmarkObsOverhead$$|BenchmarkMethodTrials$$|BenchmarkServeRun$$|BenchmarkServeList$$|BenchmarkGEMM$$|BenchmarkSoftmaxRows$$|BenchmarkElementwise$$' -benchmem -benchtime 2s -run '^$$' . | tee bench-gated.out
	$(GO) run ./tools/bench2json < bench-gated.out > BENCH_latest.json

# ns/op and B/op gate at 25% over the committed baseline (refreshed when a
# perf PR lands); allocs/op may grow at most 25% — and a baseline pinned at
# 0 allocs/op (the batched training round, the blocked-oracle row sweep)
# fails on the FIRST allocation, machine-independently. trials/s (the
# blocked oracle's and the per-method trial benchmarks' throughput metric)
# and req/s (the daemon's dedup POST) may drop at most 25%, and so may evals/s
# (the row kernel under the uniform and the biased scheme; bench/'s kernel
# probes are uniform-only, so BenchmarkOracleEvaluateMultiBiased is the one
# number CI sees for the weighted sampler). BenchmarkServeList
# pages a 10 000-run registry: its ns/op and allocs/op are those of 20 rows,
# so a change that makes listing scale with history again fails here.
# BenchmarkGEMM (the three training GEMMs at the models' layer shapes),
# BenchmarkSoftmaxRows and BenchmarkElementwise (the lane-wise exp and the
# element-wise kernels at the models' widths) are recorded by bench-json but
# not gated: their ns/op on a runner without AVX2 (and, for the exp, FMA),
# which correctly takes the portable loops, is 2.5-6x the baseline's, and
# BenchmarkFederatedRound and BenchmarkBankBuild gate the same gain end to
# end. See tools/benchdiff.
bench-check: bench-json
	$(GO) run ./tools/benchdiff -baseline BENCH_baseline.json -latest BENCH_latest.json \
		-bench BenchmarkFederatedRound,BenchmarkBankBuild,BenchmarkBankOpenMmap,BenchmarkOracleTrials,BenchmarkOracleTrialsMapped,BenchmarkOracleEvaluateMulti,BenchmarkOracleEvaluateMultiBiased,BenchmarkObsOverhead,BenchmarkMethodTrials/tpe,BenchmarkMethodTrials/hb,BenchmarkMethodTrials/bohb,BenchmarkServeRun,BenchmarkServeList \
		-max-regress 0.25 -max-allocs-frac 1.25 -metrics trials/s,req/s,evals/s -max-metric-drop 0.25

# bench/ is a module of its own (BENCHMARK.json's harness: `bash bench/run.sh`
# builds it against this tree through a replace directive), so neither
# `go build ./...` nor `go test ./...` compiles it. This target does: an
# internal/hpo or internal/core API change that would break the benchmark
# fails here first. -short skips the traced end-to-end case.
bench-harness:
	$(GO) -C bench vet .
	$(GO) -C bench test -short .

# Coverage-guided fuzzing of the decoders that face disk and the wire, 15s
# each: the bankfmt/v5 bank image (FuzzBankV5, seeded with torn-segment /
# CRC-flip / duplicate-segment corpora, a grown file of two arena segments
# and two commits, plus the retired generations — a whole v4 file among
# them — which must classify as stale; every image it accepts must
# fingerprint the same after SaveBankV4 + DecodeBank and, written to a file,
# through OpenBankMapped whenever that opens it), the dist shard
# upload (FuzzShardDecode, seeded with every hostile payload the complete
# endpoint refuses) and the run journal (FuzzJournalReplay: decoding any
# byte string, torn tails and flipped CRCs included, never panics, consumes
# exactly what re-encoding its records gives, and is prefix-stable), the run
# submission body (FuzzRunRequest: decode with unknown fields refused,
# Normalize, Validate never panic, Normalize is idempotent, and an accepted
# request keys the same run after a re-encode) and the X-Trace-Spans header
# (FuzzTraceSpans: never panics, and what it accepts is a fixed point of
# MarshalSpans then UnmarshalSpans). FuzzWeightedSample is differential
# instead: bytes become weights, uniforms and k, and the bracketed selection
# must return what the all-keys loop returns, its AVX2 bracket pass what the
# Go loop does to the bit; so is FuzzProposeCertified: bytes become a pool,
# an observation set and a list of draws, and the engine's argmax must be
# the selection loop's over the reference model's scores, its AVX2 ratios
# the Go loop's to the bit; and FuzzExpLanes: bytes become a row of float64
# bit patterns and the lane-wise exp must return what a math.Exp loop
# returns (it skips on a machine without AVX2+FMA). -fuzzminimizetime caps
# the minimization of each new interesting input (default 60 s), so the 15 s
# go to fuzzing. A crash writes its input to testdata/fuzz for triage.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzBankV5$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzShardDecode$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/dist
	$(GO) test -run '^$$' -fuzz 'FuzzJournalReplay$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/serve/journal
	$(GO) test -run '^$$' -fuzz 'FuzzRunRequest$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run '^$$' -fuzz 'FuzzTraceSpans$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/obs
	$(GO) test -run '^$$' -fuzz 'FuzzWeightedSample$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/rng
	$(GO) test -run '^$$' -fuzz 'FuzzProposeCertified$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/hpo
	$(GO) test -run '^$$' -fuzz 'FuzzExpLanes$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/tensor

figures:
	$(GO) run ./cmd/figures -quick -cache-dir $(CACHE_DIR) -out results

# CPU and allocation profiles of 15 warm quick figure passes (BenchmarkFiguresWarm
# at -cpu 1, the benchmark's figures_warm shape) -> $(PROFILE_DIR)/figures.{cpu,mem}.pprof.
# The profiles also cover the benchmark's untimed first pass, so an unprofiled
# -benchtime 1x run first fills CACHE_DIR with the quick banks: the profiled
# first pass then trains nothing. Read them with
# `go tool pprof -top $(PROFILE_DIR)/noisyeval.test $(PROFILE_DIR)/figures.cpu.pprof`
# (add -sample_index=alloc_space for the allocation profile).
profile-figures:
	mkdir -p $(PROFILE_DIR)
	NOISYEVAL_CACHE_DIR=$(CACHE_DIR) $(GO) test -run '^$$' -bench 'BenchmarkFiguresWarm$$' -benchtime 1x -cpu 1 .
	NOISYEVAL_CACHE_DIR=$(CACHE_DIR) $(GO) test -run '^$$' -bench 'BenchmarkFiguresWarm$$' -benchtime 15x -cpu 1 \
		-o $(PROFILE_DIR)/noisyeval.test -cpuprofile $(PROFILE_DIR)/figures.cpu.pprof -memprofile $(PROFILE_DIR)/figures.mem.pprof .

serve:
	$(GO) run ./cmd/noisyevald -addr $(SERVE_ADDR) -cache-dir $(CACHE_DIR)

# End-to-end daemon smoke: boot noisyevald, then drive it with the
# tools/servesmoke exerciser over pkg/client — one quick run streamed to
# completion with a dedup hit, the /v1/methods catalogue, and an ask/tell
# session whose best must match the server-driven run exactly — then drain
# on SIGTERM. Identical locally and in CI's serve job.
serve-smoke: build
	./tools/serve_smoke.sh $(SERVE_ADDR) $(CACHE_DIR)

# Cluster end to end: coordinator + 2 workers build quick banks cold via
# sharded leases (asserted on both workers' /metrics), then a warm rerun must
# train nothing. Uses its own cache dir so "cold" is guaranteed.
cluster-smoke: build
	./tools/cluster_smoke.sh

# Fault-injected durability end to end: journal boot, concurrent load,
# kill -9 + torn WAL tail, recovery boot asserted via /metrics
# (journal_replayed_total / journal_torn_tail_total / runs_recovered_total) and loadgen verify
# against an uninterrupted reference daemon.
crash-smoke: build
	./tools/crash_smoke.sh

clean:
	rm -f bench.out bench-gated.out BENCH_smoke.json BENCH_latest.json
	rm -rf results
