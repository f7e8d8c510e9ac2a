// Benchmark harness: one benchmark per table/figure of the paper (quick
// scale — identical code paths to the figure-scale cmd/figures run), plus
// ablation benchmarks for the design choices called out in DESIGN.md §5.
// None is a gate: timings are judged by the bench/ harness (BENCHMARK.json),
// and TestBenchmarkAllocs (allocs_test.go) pins the allocations of the
// substrate steps timed here, which are machine-independent.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Figure-scale outputs come from: go run ./cmd/figures
package noisyeval_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"noisyeval"
	"noisyeval/internal/core"
	"noisyeval/internal/eval"
	"noisyeval/internal/exper"
	"noisyeval/internal/hpo"
	"noisyeval/internal/nn"
	"noisyeval/internal/obs"
	"noisyeval/internal/opt"
	"noisyeval/internal/rng"
	"noisyeval/internal/serve"
	"noisyeval/internal/stats"
	"noisyeval/internal/tensor"
	"noisyeval/pkg/client"
)

var (
	suiteOnce sync.Once
	suiteVal  *exper.Suite
)

// benchSuite builds the shared quick-scale suite (bank construction is the
// one-time cost; every benchmark then resamples from the banks, exactly as
// the paper's analysis pipeline does). When NOISYEVAL_CACHE_DIR is set (as
// in CI, where the directory persists across runs via actions/cache), banks
// come from the content-addressed store instead of being retrained.
func benchSuite(b *testing.B) *exper.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteVal = exper.NewSuite(exper.Quick())
		if dir := os.Getenv("NOISYEVAL_CACHE_DIR"); dir != "" {
			store, err := core.NewBankStore(dir)
			if err == nil {
				suiteVal.SetStore(store)
			}
		}
		// Force-build the four dataset banks outside benchmark timing.
		for _, name := range exper.DatasetNames {
			suiteVal.Bank(name)
		}
	})
	return suiteVal
}

func benchFigure(b *testing.B, id string) {
	s := benchSuite(b)
	jobs, err := exper.JobsByID([]string{id})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := jobs[0].Run(s)
		if len(res.CSVRows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTableDatasets regenerates Tables 1/2 (dataset statistics).
func BenchmarkTableDatasets(b *testing.B) { benchFigure(b, "table1") }

// BenchmarkFigure1 regenerates Figure 1 (headline noiseless-vs-noisy bars).
func BenchmarkFigure1(b *testing.B) { benchFigure(b, "figure1") }

// BenchmarkFigure3 regenerates Figure 3 (RS vs subsample size).
func BenchmarkFigure3(b *testing.B) { benchFigure(b, "figure3") }

// BenchmarkFigure4 regenerates Figure 4 (data heterogeneity x subsampling).
func BenchmarkFigure4(b *testing.B) { benchFigure(b, "figure4") }

// BenchmarkFigure5 regenerates Figure 5 (error vs training budget).
func BenchmarkFigure5(b *testing.B) { benchFigure(b, "figure5") }

// BenchmarkFigure6 regenerates Figure 6 (systems heterogeneity bias).
func BenchmarkFigure6(b *testing.B) { benchFigure(b, "figure6") }

// BenchmarkFigure7 regenerates Figure 7 (full vs min-client error scatter).
func BenchmarkFigure7(b *testing.B) { benchFigure(b, "figure7") }

// BenchmarkFigure8 regenerates Figure 8 (methods, noiseless vs noisy).
func BenchmarkFigure8(b *testing.B) { benchFigure(b, "figure8") }

// BenchmarkFigure9 regenerates Figure 9 (privacy budget x subsampling).
func BenchmarkFigure9(b *testing.B) { benchFigure(b, "figure9") }

// BenchmarkFigure10 regenerates Figure 10 (matched-pair HP transfer).
func BenchmarkFigure10(b *testing.B) { benchFigure(b, "figure10") }

// BenchmarkFigure11 regenerates Figure 11 (one-shot proxy RS matrix).
func BenchmarkFigure11(b *testing.B) { benchFigure(b, "figure11") }

// BenchmarkFigure12 regenerates Figure 12 (proxy vs noisy evaluation).
func BenchmarkFigure12(b *testing.B) { benchFigure(b, "figure12") }

// BenchmarkFigure13 regenerates Figure 13 (search-space width, Appendix C).
func BenchmarkFigure13(b *testing.B) { benchFigure(b, "figure13") }

// BenchmarkFigure14 regenerates Figure 14 (mismatched-pair transfer).
func BenchmarkFigure14(b *testing.B) { benchFigure(b, "figure14") }

// BenchmarkFigure15 regenerates Figure 15 (method bars at 1/3 budget).
func BenchmarkFigure15(b *testing.B) { benchFigure(b, "figure15") }

// BenchmarkFigure16 regenerates Figure 16 (method bars at full budget).
func BenchmarkFigure16(b *testing.B) { benchFigure(b, "figure16") }

// BenchmarkFiguresWarm is one whole quick pass of every figure through
// exper.Scheduler over a warm bank store — what regenerating the paper costs
// once the banks exist. Each pass builds a fresh suite on the store, as
// cmd/figures does, at 100 trials per cell and 8 per method cell. It is the
// harness behind `make profile-figures` (run at -cpu 1 with CPU and
// allocation profiles): one pass is hundreds of milliseconds, so its ns/op
// is a profile's denominator.
// The store is NOISYEVAL_CACHE_DIR when set, else a temporary directory
// warmed by an untimed first pass.
func BenchmarkFiguresWarm(b *testing.B) {
	dir := os.Getenv("NOISYEVAL_CACHE_DIR")
	if dir == "" {
		dir = b.TempDir()
	}
	store, err := core.NewBankStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	cfg := exper.Quick()
	cfg.Trials, cfg.MethodTrials = 100, 8
	pass := func() {
		suite := exper.NewSuite(cfg)
		suite.SetStore(store)
		res, err := exper.Scheduler{}.Run(suite, exper.AllJobs())
		if err != nil {
			b.Fatal(err)
		}
		if len(res) == 0 {
			b.Fatal("empty pass")
		}
	}
	pass() // builds any bank the store lacks, outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkFederatedRound measures one federated training round (10-client
// cohort, local SGD, FedAdam aggregation) on the CIFAR10-like population.
func BenchmarkFederatedRound(b *testing.B) {
	tr := roundTrainer(b)
	tr.Round() // grows the trainer's buffers outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Round()
	}
}

// roundTrainer returns BenchmarkFederatedRound's trainer: FedAdam over a
// 10-client cohort of the CIFAR10-like population; its Round is the timed step.
func roundTrainer(tb testing.TB) *noisyeval.Trainer {
	pop := noisyeval.MustGenerate(noisyeval.CIFAR10Like().Scaled(0.15, 0), noisyeval.NewRNG(1))
	hp := noisyeval.HParams{ServerLR: 0.01, Beta1: 0.9, Beta2: 0.99, ClientLR: 0.1, BatchSize: 32}
	tr, err := noisyeval.NewTrainer(pop, hp, noisyeval.DefaultTrainerOptions(), noisyeval.NewRNG(2))
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// BenchmarkBankEvaluation measures one noisy bank evaluation (subsample +
// weighted aggregate), the inner loop of every experiment, on the shared base
// oracle: a single ask is a one-seed visit of the row kernel, and a warm
// visit allocates nothing.
func BenchmarkBankEvaluation(b *testing.B) {
	s := benchSuite(b)
	bank := s.Bank("cifar10")
	oracle, err := core.NewBankOracle(bank, 0, noisyeval.SchemeWithCount(3), 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bank.Configs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle.Evaluate(cfg, bank.MaxRounds(), "bench")
	}
}

// BenchmarkBankBuild measures building a miniature config bank end to end
// (the one-time artifact cost every experiment amortizes).
func BenchmarkBankBuild(b *testing.B) {
	build := bankBuild(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(uint64(i))
	}
}

// bankBuild returns BenchmarkBankBuild's timed step: one miniature bank
// trained end to end under the given seed.
func bankBuild(tb testing.TB) func(seed uint64) {
	spec := noisyeval.CIFAR10Like().Scaled(0.06, 0)
	spec.MeanExamples, spec.MinExamples, spec.MaxExamples = 20, 15, 25
	pop := noisyeval.MustGenerate(spec, noisyeval.NewRNG(1))
	opts := noisyeval.DefaultBuildOptions()
	opts.NumConfigs = 4
	opts.MaxRounds = 9
	return func(seed uint64) {
		if _, err := noisyeval.BuildBank(pop, opts, seed); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkGEMM measures the three batched GEMM forms at the layer shapes of
// the study's models (in→hidden→classes, minibatch 32; reddit shares
// stackoverflow's shape), through the calls nn.Linear makes: nt is the two
// forward products X·Wᵀ, nn the input-gradient product G·W of the output
// layer (and, for the text model, of the hidden layer below its embedding),
// tnacc the two weight-gradient accumulations Gᵀ·X. Hidden activations and
// hidden-layer gradients are ReLU-masked (half zeros), as in training.
// ns/mac is the number DESIGN.md §17 and the bench ledger's
// tensor.matmul_nt_ns_per_mac quote.
func BenchmarkGEMM(b *testing.B) {
	const batch = 32
	for _, shape := range []struct {
		name            string
		in, hidden, out int
		embedded        bool
	}{
		{"cifar10", 24, 48, 10, false},
		{"femnist", 24, 48, 62, false},
		{"stackoverflow", 16, 32, 64, true},
	} {
		g := rng.New(15)
		mat := func(rows, cols int, zeroFrac float64) *tensor.Mat {
			m := tensor.NewMat(rows, cols)
			for i := range m.Data {
				if !g.Bool(zeroFrac) {
					m.Data[i] = g.Normal(0, 1)
				}
			}
			return m
		}
		x, h := mat(batch, shape.in, 0), mat(batch, shape.hidden, 0.5)
		w1, w2 := mat(shape.hidden, shape.in, 0), mat(shape.out, shape.hidden, 0)
		g1, g2 := mat(batch, shape.hidden, 0.5), mat(batch, shape.out, 0)
		out1, out2 := tensor.NewMat(batch, shape.hidden), tensor.NewMat(batch, shape.out)
		gin1, gin2 := tensor.NewMat(batch, shape.in), tensor.NewMat(batch, shape.hidden)
		dw1, dw2 := tensor.NewMat(shape.hidden, shape.in), tensor.NewMat(shape.out, shape.hidden)
		layerMACs := batch * (shape.in*shape.hidden + shape.hidden*shape.out)
		nnMACs, nnRun := batch*shape.hidden*shape.out, func() { tensor.MatMul(g2, w2, gin2) }
		if shape.embedded {
			nnMACs, nnRun = layerMACs, func() {
				tensor.MatMul(g2, w2, gin2)
				tensor.MatMul(g1, w1, gin1)
			}
		}
		forms := []struct {
			name string
			macs int
			run  func()
		}{
			{"nt", layerMACs, func() {
				tensor.MatMulNT(x, w1, out1)
				tensor.MatMulNT(h, w2, out2)
			}},
			{"nn", nnMACs, nnRun},
			{"tnacc", layerMACs, func() {
				tensor.MatMulTNAcc(g2, h, dw2)
				tensor.MatMulTNAcc(g1, x, dw1)
			}},
		}
		for _, form := range forms {
			b.Run(form.name+"/"+shape.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					form.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*form.macs), "ns/mac")
			})
		}
	}
}

// BenchmarkSoftmaxRows measures tensor.SoftmaxCrossEntropyRows on a 32-row
// minibatch at the three head widths (cifar10's 10, femnist's 62 — fifteen
// exp vectors and a two-element scalar tail — and the text models' 64),
// including the copy that restores the logits it overwrites. ns/elem is the
// number DESIGN.md §20 quotes.
func BenchmarkSoftmaxRows(b *testing.B) {
	const batch = 32
	for _, classes := range []int{10, 62, 64} {
		b.Run(strconv.Itoa(classes), func(b *testing.B) {
			g := rng.New(16)
			src, logits := tensor.NewMat(batch, classes), tensor.NewMat(batch, classes)
			labels := make([]int, batch)
			for i := range src.Data {
				src.Data[i] = g.Normal(0, 3)
			}
			for i := range labels {
				labels[i] = g.IntN(classes)
			}
			for i := 0; i < b.N; i++ {
				copy(logits.Data, src.Data)
				tensor.SoftmaxCrossEntropyRows(logits, labels)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch*classes), "ns/elem")
		})
	}
}

// BenchmarkElementwise measures the reduction-free passes of a training
// step through the calls the trainer makes — the client SGD step, the server
// Adam step and Axpy over a model's flat parameters, ReLU forward plus
// backward over a 32-row hidden activation — at the three model shapes
// (reddit shares stackoverflow's), in ns per element touched.
func BenchmarkElementwise(b *testing.B) {
	const batch = 32
	for _, shape := range []struct {
		name           string
		params, hidden int
	}{
		{"cifar10", 24*48 + 48 + 48*10 + 10, 48},
		{"femnist", 24*48 + 48 + 48*62 + 62, 48},
		{"stackoverflow", 64*16 + 16*32 + 32 + 32*64 + 64, 32},
	} {
		g := rng.New(17)
		vec := func(n int) tensor.Vec {
			v := tensor.NewVec(n)
			for i := range v {
				v[i] = g.Normal(0, 0.1)
			}
			return v
		}
		w, grad := vec(shape.params), vec(shape.params)
		sgd := opt.NewSGD(shape.params, 0.01, 0.9, 5e-5)
		adam := opt.NewAdam(shape.params, 0.001, 0.9, 0.99, 1e-8, 0.9999)
		relu := nn.NewReLU(shape.hidden)
		act := &tensor.Mat{Rows: batch, Cols: shape.hidden, Data: vec(batch * shape.hidden)}
		for _, op := range []struct {
			name  string
			elems int
			run   func()
		}{
			{"sgd", shape.params, func() { sgd.Step(w, grad) }},
			{"adam", shape.params, func() { adam.Step(w, grad) }},
			{"axpy", shape.params, func() { w.Axpy(1e-9, grad) }},
			{"relu", 2 * batch * shape.hidden, func() { relu.BackwardBatch(relu.ForwardBatch(act)) }},
		} {
			b.Run(op.name+"/"+shape.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*op.elems), "ns/elem")
			})
		}
	}
}

// BenchmarkDistAssemble measures reassembling a sharded bank build — the
// dist coordinator's hot path once worker shards arrive (training excluded:
// the shards are built once outside the timer). Reported alongside a
// shard-throughput metric (config-ranges merged per second).
func BenchmarkDistAssemble(b *testing.B) {
	spec := noisyeval.CIFAR10Like().Scaled(0.06, 0)
	spec.MeanExamples, spec.MinExamples, spec.MaxExamples = 20, 15, 25
	pop := noisyeval.MustGenerate(spec, noisyeval.NewRNG(1))
	opts := noisyeval.DefaultBuildOptions()
	opts.NumConfigs = 8
	opts.MaxRounds = 9
	opts.Partitions = []float64{0.5}
	plan, err := core.NewBuildPlan(pop, opts, 5)
	if err != nil {
		b.Fatal(err)
	}
	var shards []*core.BankShard
	for _, r := range core.ShardRanges(plan.NumConfigs(), 2) {
		sh, err := plan.TrainRange(r[0], r[1], 0)
		if err != nil {
			b.Fatal(err)
		}
		shards = append(shards, sh)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AssembleBank(plan, shards); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(shards))/b.Elapsed().Seconds(), "shards/s")
}

// serveBenchManager boots a serving manager over a miniature scale (banks
// build in tens of milliseconds) and shuts it down with the benchmark.
func serveBenchManager(tb testing.TB) *serve.Manager {
	cfg := exper.Quick()
	cfg.Scales = map[string]float64{"cifar10": 0.06, "femnist": 0.02, "stackoverflow": 0.002, "reddit": 0.0008}
	cfg.CapExamples, cfg.BankConfigs, cfg.MaxRounds, cfg.K = 30, 6, 9, 4
	dir := os.Getenv("NOISYEVAL_CACHE_DIR")
	if dir == "" {
		dir = tb.TempDir()
	}
	store, err := core.NewBankStore(dir)
	if err != nil {
		tb.Fatal(err)
	}
	mgr := serve.NewManager(serve.Options{
		Store: store, Workers: 2,
		Scales: map[string]exper.Config{"quick": cfg},
	})
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	return mgr
}

// BenchmarkServeRun measures warm-cache throughput of the noisyevald serving
// path: after one run completes, every identical POST /v1/runs is absorbed
// by the content-addressed run key and answered from the cached result bytes
// — the requests/sec a tuning service sustains on its hot path (no bank
// training, no tuning, full HTTP round trip).
func BenchmarkServeRun(b *testing.B) {
	mgr := serveBenchManager(b)
	post := dedupPost(b, mgr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	if n := mgr.BankBuilds(); n > 1 {
		b.Fatalf("warm-cache benchmark trained %d banks", n)
	}
}

// dedupPost returns BenchmarkServeRun's timed step over a loopback server in
// front of mgr: one POST /v1/runs of a run that has already finished,
// answered 200 from the cached result bytes and read to the end. The first
// submission and its event stream run here, untimed.
func dedupPost(tb testing.TB, mgr *serve.Manager) func() {
	ts := httptest.NewServer(serve.NewServer(mgr))
	tb.Cleanup(ts.Close)

	const body = `{"dataset":"cifar10","method":"rs","trials":3,"seed":11,"noise":{"sample_count":2}}`
	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			tb.Fatal(err)
		}
		return resp
	}

	// Warm: submit once and stream events until the run is terminal.
	resp := post()
	var st client.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		tb.Fatal(err)
	}
	resp.Body.Close()
	eresp, err := http.Get(ts.URL + "/v1/runs/" + st.ID + "/events")
	if err != nil {
		tb.Fatal(err)
	}
	io.Copy(io.Discard, eresp.Body) // EOF = terminal event delivered
	eresp.Body.Close()

	return func() {
		resp := post()
		if resp.StatusCode != http.StatusOK {
			tb.Fatalf("warm submit status = %d, want 200 (dedup hit)", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkServeVisit replays the serve_mix visit through pkg/client over
// loopback: submit a fresh two-trial run, stream its events to the terminal
// one, GET the result and keep its ETag, re-submit an earlier visit's request
// (a dedup hit), GET that run with If-None-Match (304), and list 20 done
// runs. One visit is one op; the first runs untimed, so the bank build is not
// in it. It is the workload `make profile-serve` profiles.
func BenchmarkServeVisit(b *testing.B) {
	mgr := serveBenchManager(b)
	ts := httptest.NewServer(serve.NewServer(mgr))
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	request := func(i int) client.RunRequest {
		return client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: uint64(i + 1),
			Noise: client.Noise{SampleCount: 2}}
	}
	get := func(id, ifNoneMatch string, want int) string {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/runs/"+id, nil)
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			b.Fatalf("GET %s: status %d, want %d", id, resp.StatusCode, want)
		}
		if want == http.StatusOK {
			var st client.RunStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.State != "done" {
				b.Fatalf("GET %s: state %q, err %v", id, st.State, err)
			}
		}
		return resp.Header.Get("ETag")
	}
	var ids, etags []string
	visit := func(i int) {
		sub, err := c.SubmitRun(ctx, request(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := c.StreamEvents(ctx, sub.ID, -1, func(client.Event) error { return nil }); err != nil {
			b.Fatal(err)
		}
		ids, etags = append(ids, sub.ID), append(etags, get(sub.ID, "", http.StatusOK))
		j := (i * 7919) % (i + 1) // serve_mix's revisit stride over the history
		if again, err := c.SubmitRun(ctx, request(j)); err != nil || again.ID != ids[j] {
			b.Fatalf("resubmit of visit %d: run %s, err %v; want dedup onto %s", j, again.ID, err, ids[j])
		}
		get(ids[j], etags[j], http.StatusNotModified)
		if page, err := c.ListRuns(ctx, client.ListRunsOptions{State: "done", Limit: 20}); err != nil || len(page.Runs) == 0 {
			b.Fatalf("list: %d runs, err %v", len(page.Runs), err)
		}
	}
	visit(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		visit(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "visits/s")
}

// BenchmarkServeList measures one filtered page of GET /v1/runs
// (?state=done&limit=20) over a registry retaining 10 000 finished runs, on a
// recorder — the request a dashboard polls. The registry keeps runs in ID
// order and the walk stops when the page is full, so ns/op and allocs/op
// are those of 20 rows, whatever the daemon retains (DESIGN.md §16).
func BenchmarkServeList(b *testing.B) {
	list := listPage(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		list()
	}
}

// listPage returns BenchmarkServeList's timed step: one filtered page of
// GET /v1/runs (?state=done&limit=20) on a recorder, over a registry holding
// retained finished runs.
func listPage(tb testing.TB, retained int) func() {
	mgr := serveBenchManager(tb)
	for seed := 1; seed <= retained; seed++ {
		req := client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 1, Seed: uint64(seed)}
		_, _, err := mgr.Submit(req)
		for errors.Is(err, serve.ErrQueueFull) {
			time.Sleep(time.Millisecond)
			_, _, err = mgr.Submit(req)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	for completed := mgr.Metrics().Counter("runs_completed_total", ""); completed.Value() < int64(retained); {
		time.Sleep(time.Millisecond)
	}
	srv := serve.NewServer(mgr)
	get := httptest.NewRequest(http.MethodGet, "/v1/runs?state=done&limit=20", nil)
	return func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, get)
		if rec.Code != http.StatusOK {
			tb.Fatalf("list status = %d", rec.Code)
		}
	}
}

// --- Bank open and oracle-trial benchmarks (DESIGN.md §9) ---

// codecBenchBank builds a synthetic bank shaped like a mid-scale artifact
// (3 partitions x 64 configs x 5 checkpoints x 400 clients ≈ 3 MB arena)
// without any training: the error values are small-denominator fractions,
// like real recorded errors. Used by the open and oracle benchmarks so their
// numbers do not depend on trainer speed or the bank cache.
var codecBenchBank = func() *core.Bank {
	const parts, configs, ckpts, clients = 3, 64, 5, 400
	g := rng.New(42)
	b := &core.Bank{
		SpecName:   "codec-bench",
		Seed:       42,
		Configs:    hpo.DefaultSpace().SampleN(configs, g.Split("pool")),
		Rounds:     []int{5, 15, 45, 135, 405},
		Partitions: []float64{0, 0.5, 1},
		Errs:       core.NewErrMatrix(parts, configs, ckpts, clients),
		Diverged:   make([]bool, configs),
	}
	b.ExampleCounts = make([][]int, parts)
	counts := make([]int, clients)
	for k := range counts {
		counts[k] = 15 + g.IntN(20)
	}
	for pi := range b.ExampleCounts {
		b.ExampleCounts[pi] = counts
	}
	// Row order is the canonical order, so the draws land where they did
	// when this loop filled one flat arena.
	for pi := 0; pi < parts; pi++ {
		for ci := 0; ci < configs; ci++ {
			for ri := 0; ri < ckpts; ri++ {
				row := b.Errs.Row(pi, ci, ri)
				for k := range row {
					row[k] = uint32(g.IntN(counts[k] + 1))
				}
			}
		}
	}
	return b
}()

// biasShapeBank is the bench scale's shape for the biased row benchmark: 50
// clients of 40–80 examples (the bench bank's Σ(n_k + 1) is 3 050), 4
// configs and 5 checkpoints, errors drawn per client around a client-level
// rate so that some clients sit near accuracy 0.
var biasShapeBank = func() *core.Bank {
	const configs, ckpts, clients = 4, 5, 50
	g := rng.New(43)
	b := &core.Bank{
		SpecName:   "bias-shape",
		Seed:       43,
		Configs:    hpo.DefaultSpace().SampleN(configs, g.Split("pool")),
		Rounds:     []int{5, 15, 45, 135, 405},
		Partitions: []float64{0},
		Errs:       core.NewErrMatrix(1, configs, ckpts, clients),
		Diverged:   make([]bool, configs),
	}
	counts := make([]int, clients)
	for k := range counts {
		counts[k] = 40 + g.IntN(41)
	}
	b.ExampleCounts = [][]int{counts}
	for ci := 0; ci < configs; ci++ {
		for ri := 0; ri < ckpts; ri++ {
			row := b.Errs.Row(0, ci, ri)
			for k := range row {
				row[k] = uint32(float64(counts[k]) * min(1, g.Float64()*1.25))
			}
		}
	}
	return b
}()

// BenchmarkOracleTrials measures 100 bootstrap tuning trials against a warm
// bank — the workload every figure, noisyevald run, and ablation resolves
// to. The oracle's arena rows and per-trial scratch make the steady state
// allocation-light.
func BenchmarkOracleTrials(b *testing.B) {
	oracle, err := core.NewBankOracle(codecBenchBank, 0, noisyeval.SchemeWithCount(10), 1)
	if err != nil {
		b.Fatal(err)
	}
	tn := core.Tuner{
		Method:   hpo.RandomSearch{},
		Space:    hpo.DefaultSpace(),
		Settings: hpo.Settings{Budget: hpo.Budget{TotalRounds: 8 * 405, MaxPerConfig: 405, K: 8}}.Normalize(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := tn.RunTrials(oracle, 100, rng.New(uint64(i)).Split("bench-trials"))
		if len(results) != 100 {
			b.Fatal("short trial batch")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(100*b.N)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkOracleEvaluateMulti measures the row-sweep kernel the block
// scheduler bottoms out in: one arena row evaluated for a 64-cohort wave
// with warm scratch. TestBenchmarkAllocs pins allocs/op at 0 — the steady
// state must stay allocation-free no matter how many cohorts share the row.
func BenchmarkOracleEvaluateMulti(b *testing.B) {
	benchEvaluateRows(b, noisyeval.SchemeWithCount(10))
}

// BenchmarkOracleEvaluateMultiBiased is the same sweep under systems
// heterogeneity (3 clients per cohort drawn with weight (acc+δ)^1.5, the
// Figure 6 family's scheme): the weighted sampler instead of the partial
// shuffle. Pinned at 0 allocs/op like its uniform sibling.
func BenchmarkOracleEvaluateMultiBiased(b *testing.B) {
	benchEvaluateRows(b, core.Noise{SampleCount: 3, Bias: 1.5}.Scheme())
}

// BenchmarkOracleEvaluateBiasedBenchShape is the biased sweep at the shape
// of tune_heavy's bias cells: 50 clients of 40–80 examples, 3 per cohort
// drawn with weight (acc+δ)^1.5, one cohort per visit (a single ask) and a
// 64-cohort wave. TestBenchmarkAllocs pins both at 0 allocs/op.
func BenchmarkOracleEvaluateBiasedBenchShape(b *testing.B) {
	for _, cohorts := range []int{1, rowCohorts} {
		b.Run("cohorts="+strconv.Itoa(cohorts), func(b *testing.B) {
			benchRows(b, evaluateRowsOf(b, biasShapeBank, core.Noise{SampleCount: 3, Bias: 1.5}.Scheme(), cohorts), cohorts)
		})
	}
}

func benchEvaluateRows(b *testing.B, scheme eval.Scheme) {
	benchRows(b, evaluateRows(b, scheme), rowCohorts)
}

func benchRows(b *testing.B, sweep func(i int) float64, cohorts int) {
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += sweep(i)
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("evaluations produced no signal")
	}
	b.ReportMetric(float64(cohorts*b.N)/b.Elapsed().Seconds(), "evals/s")
}

const rowCohorts = 64

// evaluateRows returns the timed step of the row-kernel benchmarks under
// scheme, its scratch already warm: row i of the bench bank (partition 0,
// config i%4, checkpoint i%5) evaluated for a 64-cohort wave. It returns the
// first cohort's observed error.
func evaluateRows(tb testing.TB, scheme eval.Scheme) func(i int) float64 {
	return evaluateRowsOf(tb, codecBenchBank, scheme, rowCohorts)
}

// evaluateRowsOf is evaluateRows over bank's rows for a wave of cohorts.
func evaluateRowsOf(tb testing.TB, bank *core.Bank, scheme eval.Scheme, cohorts int) func(i int) float64 {
	oracle, err := core.NewBankOracle(bank, 0, scheme, 1)
	if err != nil {
		tb.Fatal(err)
	}
	seeds := make([]uint64, cohorts)
	for i := range seeds {
		seeds[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	var ms eval.MultiScratch
	for ci := 0; ci < 4; ci++ { // warm the scratch and the bias table before timing
		for ri := range bank.Rounds {
			oracle.EvaluateRows(ci, ri, seeds, &ms)
		}
	}
	return func(i int) float64 {
		return oracle.EvaluateRows(i%4, i%5, seeds, &ms)[0].Observed
	}
}

// BenchmarkObsOverhead measures the fully instrumented oracle evaluation
// step: one warm BankOracle.Evaluate plus exactly the obs work the trial
// loop adds per evaluation — one histogram Observe and one counter Inc.
// TestBenchmarkAllocs pins allocs/op at 0: the first allocation the
// instrumentation introduces fails go test, which is what keeps /metrics
// collection free on the hot path.
func BenchmarkObsOverhead(b *testing.B) {
	step := instrumentedEvaluate(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += step()
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("evaluations produced no signal")
	}
}

// instrumentedEvaluate returns BenchmarkObsOverhead's timed step with its
// pooled visit already warm.
func instrumentedEvaluate(tb testing.TB) func() float64 {
	oracle, err := core.NewBankOracle(codecBenchBank, 0, noisyeval.SchemeWithCount(10), 1)
	if err != nil {
		tb.Fatal(err)
	}
	trial := oracle.WithTrial(0) // the per-trial salt a RunTrials trial evaluates under
	cfg := codecBenchBank.Configs[0]
	reg := obs.NewRegistry()
	hist := reg.Histogram("bench_trial_seconds", "Instrumentation-overhead bench histogram.", nil)
	ctr := reg.Counter("bench_trials_total", "Instrumentation-overhead bench counter.")
	trial.Evaluate(cfg, 405, "warm") // warm the pooled visit before timing
	return func() float64 {
		start := time.Now()
		v := trial.Evaluate(cfg, 405, "warm")
		hist.Observe(time.Since(start).Seconds())
		ctr.Inc()
		return v
	}
}

// BenchmarkBankOpenMmap measures opening a bankfmt/v5 bank for zero-copy
// serving — the store's first Get of an entry: the segment walk, every
// payload CRC and every count checked, no copy. A heap load (LoadBank)
// checks the same and copies every count as well.
func BenchmarkBankOpenMmap(b *testing.B) {
	open := openMapped(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		open()
	}
}

// openMapped returns BenchmarkBankOpenMmap's timed step: OpenBankMapped of
// the bench bank saved to a temporary file, then Close.
func openMapped(tb testing.TB) func() {
	path := tb.TempDir() + "/bench.bank"
	if err := core.SaveBankV4(codecBenchBank, path); err != nil {
		tb.Fatal(err)
	}
	return func() {
		bank, closer, err := core.OpenBankMapped(path)
		if err != nil {
			tb.Fatal(err)
		}
		if len(bank.Configs) != len(codecBenchBank.Configs) {
			tb.Fatal("short bank")
		}
		closer.Close()
	}
}

// BenchmarkOracleTrialsMapped is BenchmarkOracleTrials against a bank whose
// counts are a view of an mmap'd bankfmt/v5 file: the oracle reads rows
// straight out of the page cache. Same workload as the
// heap benchmark so the numbers compare directly; the read path itself adds
// no allocations over heap. The open's CRC pass touches every page, which
// keeps first-touch page faults out of the timed region.
func BenchmarkOracleTrialsMapped(b *testing.B) {
	path := b.TempDir() + "/bench.bank"
	if err := core.SaveBankV4(codecBenchBank, path); err != nil {
		b.Fatal(err)
	}
	bank, closer, err := core.OpenBankMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	defer closer.Close()
	oracle, err := core.NewBankOracle(bank, 0, noisyeval.SchemeWithCount(10), 1)
	if err != nil {
		b.Fatal(err)
	}
	tn := core.Tuner{
		Method:   hpo.RandomSearch{},
		Space:    hpo.DefaultSpace(),
		Settings: hpo.Settings{Budget: hpo.Budget{TotalRounds: 8 * 405, MaxPerConfig: 405, K: 8}}.Normalize(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := tn.RunTrials(oracle, 100, rng.New(uint64(i)).Split("bench-trials"))
		if len(results) != 100 {
			b.Fatal("short trial batch")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(100*b.N)/b.Elapsed().Seconds(), "trials/s")
}

// BenchmarkMethodTrials measures 64 bootstrap trials of each model-based or
// multi-fidelity method at the paper's budget (16 × 405 rounds: 16
// evaluations per TPE trial, 190 per HB/BOHB trial) against the 64-config
// bench bank. BenchmarkOracleTrials covers RS, where the scheduler and the
// row kernel are the whole cost; here the method's own proposal code is, so
// this is the before/after number for the Parzen engine (DESIGN.md §15),
// whose allocations TestRunTrialsAllocsPerTrial pins. HB shares BOHB's
// brackets and evaluations but has no model: bohb − hb is the engine's cost.
// Its allocs/op moves by one or two between identical runs: every GC cycle
// empties the trial scratch pools (sync.Pool), and how many cycles fall in
// the timed region depends on the pacer. TestBenchmarkAllocs measures the
// same step with the GC off, where the count is exact.
func BenchmarkMethodTrials(b *testing.B) {
	for _, name := range []string{"tpe", "hb", "bohb"} {
		b.Run(name, func(b *testing.B) {
			trials := methodTrials(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trials(i)
			}
			b.StopTimer()
			b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "trials/s")
		})
	}
}

// methodTrials returns BenchmarkMethodTrials' timed step for one method: 64
// bootstrap trials against the bench bank, seeded by the iteration.
func methodTrials(tb testing.TB, name string) func(i int) {
	oracle, err := core.NewBankOracle(codecBenchBank, 0, noisyeval.SchemeWithCount(10), 1)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := hpo.MethodByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	tn := core.Tuner{Method: m, Space: hpo.DefaultSpace(), Settings: hpo.DefaultSettings()}
	return func(i int) {
		if results := tn.RunTrials(oracle, 64, rng.New(uint64(i)).Split("bench-methods")); len(results) != 64 {
			tb.Fatal("short trial batch")
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// runRSTrials is the shared ablation harness: bootstrap RS over the
// cifar10-like bank under a noise setting, reporting the median final error
// as a benchmark metric.
func runRSTrials(b *testing.B, s *exper.Suite, noise core.Noise, method hpo.Method, label string) {
	bank := s.Bank("cifar10")
	oracle, err := core.NewBankOracle(bank, noise.HeterogeneityP, noise.Scheme(), 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := s.Cfg
	tn := core.Tuner{Method: method, Space: hpo.DefaultSpace(), Settings: noise.Settings(cfg.Settings())}
	var med float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finals := core.FinalErrors(tn.RunTrials(oracle, cfg.Trials, rng.New(uint64(i)).Split(label)))
		med = stats.Median(finals)
	}
	b.ReportMetric(med*100, "median_err_%")
}

// BenchmarkAblationWeightedEval compares the paper's weighted aggregation
// against uniform weighting under subsampling (footnote 1 design choice).
func BenchmarkAblationWeightedEval(b *testing.B) {
	s := benchSuite(b)
	b.Run("weighted", func(b *testing.B) {
		runRSTrials(b, s, core.Noise{SampleCount: 2}, hpo.RandomSearch{}, "abl-weighted")
	})
	b.Run("uniform", func(b *testing.B) {
		runRSTrials(b, s, core.Noise{SampleCount: 2, Uniform: true}, hpo.RandomSearch{}, "abl-uniform")
	})
}

// BenchmarkAblationReeval compares plain RS against re-evaluation-averaged
// RS (the §5 "simple trick") under subsampling noise.
func BenchmarkAblationReeval(b *testing.B) {
	s := benchSuite(b)
	b.Run("plain", func(b *testing.B) {
		runRSTrials(b, s, core.Noise{SampleCount: 1}, hpo.RandomSearch{}, "abl-plain")
	})
	b.Run("reeval3", func(b *testing.B) {
		runRSTrials(b, s, core.Noise{SampleCount: 1}, hpo.ResampledRS{Reps: 3}, "abl-reeval")
	})
}

// BenchmarkAblationTPEPool varies TPE's candidate pool size (EI candidates
// scored per iteration).
func BenchmarkAblationTPEPool(b *testing.B) {
	s := benchSuite(b)
	for _, n := range []int{8, 24, 48} {
		n := n
		b.Run(sizeName(n), func(b *testing.B) {
			runRSTrials(b, s, core.Noise{SampleCount: 2}, hpo.TPE{NCandidates: n}, "abl-tpe")
		})
	}
}

// BenchmarkAblationCheckpointDensity compares Hyperband on banks built with
// dense (5-level) vs sparse (2-level) checkpoint grids: sparse grids force
// low-fidelity evaluations onto higher rungs.
func BenchmarkAblationCheckpointDensity(b *testing.B) {
	spec := noisyeval.CIFAR10Like().Scaled(0.08, 0)
	spec.MeanExamples, spec.MinExamples, spec.MaxExamples = 20, 15, 25
	pop := noisyeval.MustGenerate(spec, noisyeval.NewRNG(3))
	for _, levels := range []int{2, 5} {
		levels := levels
		b.Run(sizeName(levels), func(b *testing.B) {
			opts := noisyeval.DefaultBuildOptions()
			opts.NumConfigs = 8
			opts.MaxRounds = 27
			opts.Levels = levels
			bank, err := noisyeval.BuildBank(pop, opts, 4)
			if err != nil {
				b.Fatal(err)
			}
			oracle, err := core.NewBankOracle(bank, 0, noisyeval.SchemeWithCount(2), 1)
			if err != nil {
				b.Fatal(err)
			}
			tn := core.Tuner{
				Method: hpo.Hyperband{},
				Space:  hpo.DefaultSpace(),
				Settings: hpo.Settings{
					Budget: hpo.Budget{TotalRounds: 8 * 27, MaxPerConfig: 27, K: 8},
				}.Normalize(),
			}
			var med float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				finals := core.FinalErrors(tn.RunTrials(oracle, 8, rng.New(uint64(i)).Split("abl-ckpt")))
				med = stats.Median(finals)
			}
			b.ReportMetric(med*100, "median_err_%")
		})
	}
}

func sizeName(n int) string {
	switch {
	case n < 10:
		return "n" + string(rune('0'+n))
	default:
		return "n" + string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
}
