# Local runs and CI invoke the same targets (.github/workflows/ci.yml).
#
#   make build       compile everything
#   make lint        gofmt + go vet, plus the no-assembly (arm64) cross-build
#   make lines       non-test, non-blank Go lines per package outside bench/,
#                    and the total (the number a simplicity PR reports)
#   make test        full test suite (bank cache at $(CACHE_DIR)), plus
#                    internal/rng under GOARCH=386, where rand/v2 reduces
#                    IntN bounds through its 32-bit path
#   make race        the full test suite under the race detector, plus ten
#                    runs of the oracle's shared bias-table test
#   make examples    build and run the five examples/ programs (the facade's
#                    documented entry points; bank cache at $(CACHE_DIR))
#   make bench       every root benchmark once (-benchtime 1x) -> bench.out;
#                    ungated developer numbers: timings are judged by bench/
#                    (BENCHMARK.json), allocations by TestBenchmarkAllocs
#   make bench-harness vet + short tests of the bench/ module (BENCHMARK.json's
#                    harness; its own go.mod, so `go test ./...` never sees it)
#   make fuzz        short coverage-guided fuzz pass over the decoders
#                    that read bytes from disk or the wire (bankfmt/v5 bank
#                    image, dist shard upload, run journal, run submission,
#                    session-open body, trace-span header, the client's
#                    event stream), the two
#                    certified selections against their references (the
#                    weighted sampler's top-k, the Parzen proposal's argmax)
#                    and their AVX2 kernels against the Go loops, and the
#                    lane-wise exp against math.Exp
#   make figures     quick-scale figure regeneration through the bank cache
#   make profile-figures CPU + allocation profiles of warm quick figure passes
#                    (BenchmarkFiguresWarm at -cpu 1) in $(PROFILE_DIR)
#   make profile-serve CPU + allocation profiles of serve_mix client visits over
#                    loopback (BenchmarkServeVisit at -cpu 1) in $(PROFILE_DIR)
#   make serve       run the noisyevald tuning daemon on $(SERVE_ADDR)
#   make serve-smoke boot noisyevald, drive runs + an ask/tell session via pkg/client
#                    end to end, shut down gracefully, then boot again over the
#                    same cache and serve a quick run from the store (used by CI)
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

.PHONY: build lint lines test race examples bench bench-harness fuzz figures profile-figures profile-serve serve serve-smoke cluster-smoke crash-smoke clean

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
	GOARCH=386 $(GO) test ./internal/rng

race:
	NOISYEVAL_CACHE_DIR=$(CACHE_DIR) $(GO) test -race ./...
	$(GO) test -race -count=10 -run TestBiasTableSharedByRowWorkers ./internal/core

examples:
	@for d in examples/*/; do echo "== $$d"; NOISYEVAL_CACHE_DIR=$(CACHE_DIR) $(GO) run ./$$d || exit 1; done

# No pipe into tee: its exit status would hide a benchmark that fails.
bench:
	NOISYEVAL_CACHE_DIR=$(CACHE_DIR) $(GO) test -bench=. -benchtime=1x -run '^$$' . > bench.out; \
		status=$$?; cat bench.out; exit $$status

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
# CRC-flip / duplicate-segment corpora, the committed grown-in-place file
# internal/core/testdata/grown-in-place.bank (two arena segments and two
# commits), the same file with one bit flipped in its second arena,
# plus the retired generations — a whole v4 file among
# them — which must classify as stale; every image it accepts must
# fingerprint the same after SaveBankV4 + DecodeBank, and written to a file
# it must open through OpenBankMapped exactly when DecodeBank accepts it,
# with an equal fingerprint), the dist shard
# upload (FuzzShardDecode, seeded with every hostile payload the complete
# endpoint refuses) and the run journal (FuzzJournalReplay: decoding any
# byte string, torn tails and flipped CRCs included, never panics, consumes
# exactly what re-encoding its records gives, and is prefix-stable), the run
# submission body (FuzzRunRequest: decode with unknown fields refused,
# normalization and validation never panic, normalization is idempotent, and
# an accepted request keys the same run after a re-encode), the session-open
# body (FuzzSessionRequest: the same decode, normalization and validation
# never panic, normalization is idempotent, and an accepted request normalizes to itself
# after a re-encode), the X-Trace-Spans header
# (FuzzTraceSpans: never panics, and what it accepts is a fixed point of
# MarshalSpans then UnmarshalSpans) and pkg/client's event-stream decoder
# (FuzzClientEvents: any bytes served as an NDJSON events body give events or
# an error, never a panic or a hang, and a clean end means one event per
# line). FuzzWeightedSample is differential
# instead: bytes become weights, uniforms and k, and the bracketed selection
# must return what the all-keys loop returns, its AVX2 bracket pass what the
# Go loop does to the bit; so is FuzzProposeCertified: bytes become a pool,
# an observation set and a list of draws, and the engine's argmax must be
# the selection loop's over the reference model's scores, its AVX2 ratios
# the Go loop's to the bit; and FuzzExpLanes: bytes become a row of float64
# bit patterns and the lane-wise exp must return what a math.Exp loop
# returns (it skips on a machine without AVX2+FMA); and FuzzSplitChain:
# bytes become a chain of up to six RNG splits and reseeds, and every stream
# must be the one the same chain of Splitf calls derives, its seed hash/fnv
# over the parent's seed and path and the label. -fuzzminimizetime caps
# the minimization of each new interesting input (default 60 s), so the 15 s
# go to fuzzing. A crash writes its input to testdata/fuzz for triage.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzBankV5$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz 'FuzzShardDecode$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/dist
	$(GO) test -run '^$$' -fuzz 'FuzzJournalReplay$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/serve/journal
	$(GO) test -run '^$$' -fuzz 'FuzzRunRequest$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run '^$$' -fuzz 'FuzzSessionRequest$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run '^$$' -fuzz 'FuzzTraceSpans$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/obs
	$(GO) test -run '^$$' -fuzz 'FuzzClientEvents$$' -fuzztime 15s -fuzzminimizetime 1s ./pkg/client
	$(GO) test -run '^$$' -fuzz 'FuzzWeightedSample$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/rng
	$(GO) test -run '^$$' -fuzz 'FuzzSplitChain$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/rng
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

# CPU and allocation profiles of 10 000 serve_mix visits (BenchmarkServeVisit at
# -cpu 1: submit, stream to terminal, GET, dedup, conditional GET, a 20-row
# list, all through pkg/client over loopback) -> $(PROFILE_DIR)/serve.{cpu,mem}.pprof.
# An unprofiled -benchtime 1x run first fills CACHE_DIR with the miniature
# bank, so the profile holds no bank training. Read them with
# `go tool pprof -top $(PROFILE_DIR)/noisyeval.test $(PROFILE_DIR)/serve.cpu.pprof`
# (add -sample_index=alloc_space for the allocation profile).
profile-serve:
	mkdir -p $(PROFILE_DIR)
	NOISYEVAL_CACHE_DIR=$(CACHE_DIR) $(GO) test -run '^$$' -bench 'BenchmarkServeVisit$$' -benchtime 1x -cpu 1 .
	NOISYEVAL_CACHE_DIR=$(CACHE_DIR) $(GO) test -run '^$$' -bench 'BenchmarkServeVisit$$' -benchtime 10000x -cpu 1 \
		-o $(PROFILE_DIR)/noisyeval.test -cpuprofile $(PROFILE_DIR)/serve.cpu.pprof -memprofile $(PROFILE_DIR)/serve.mem.pprof .

serve:
	$(GO) run ./cmd/noisyevald -addr $(SERVE_ADDR) -cache-dir $(CACHE_DIR)

# End-to-end daemon smoke: boot noisyevald, then drive it with the
# tools/servesmoke exerciser over pkg/client — one quick run streamed to
# completion with a dedup hit, the /v1/methods catalogue, and an ask/tell
# session whose best must match the server-driven run exactly — then drain
# on SIGTERM, boot again over the same cache and journal, and check a quick
# run there opens its bank from the store instead of training it. Identical
# locally and in CI's serve job.
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
	rm -f bench.out
	rm -rf results
