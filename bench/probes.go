package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/data"
	"noisyeval/internal/dist"
	"noisyeval/internal/eval"
	"noisyeval/internal/exper"
	"noisyeval/internal/fl"
	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
	"noisyeval/internal/serve"
	"noisyeval/internal/serve/journal"
	"noisyeval/internal/tensor"
	"noisyeval/pkg/client"
)

// The layer probes time calls into each layer's public functions, from
// bench/ only, on the same generated inputs the workloads use: the bench
// bank, the fig suite, and the seed's first cold scale. Every traced run
// executes all of them, whatever its workload, so every traced run reports
// the whole per-layer catalogue.

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func()) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = time.Since(start)
	}
	return medianDur(ds)
}

// mallocs returns the heap allocations fn performs.
func mallocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}

// probeSizes are the probes' repeat counts.
type probeSizes struct {
	registryFill   int // finished runs in the registry when the list handler is timed
	mixVisits      int // length of the serve_mix slice behind the client-side split and the spans
	spanSample     int // runs of that slice whose server trace is fetched; divides mixVisits
	journalRecords int // records behind the append, compaction and replay probes
}

// fullSizes is what the command runs; the tests run smaller ones.
var fullSizes = probeSizes{registryFill: 10000, mixVisits: 1000, spanSample: 200, journalRecords: 10000}

// probes carries the inputs the layer probes share.
type probes struct {
	sz    probeSizes
	procs int // the process's default GOMAXPROCS
	seed  uint64
	dir   string
	out   map[string]metric
	store *core.BankStore // mapped+warm, over dir/cache
	bench *exper.Suite    // benchScale over store
	bank  *core.Bank      // the bench bank
	key   string          // its store key
	cold  *exper.Suite    // the seed's first cold scale, no store

	nsPerEval float64 // set by oracle, read by tunerAndMethods
}

func (p *probes) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

// runProbes executes every layer probe under dir and returns the metrics.
func runProbes(seed uint64, dir string, sz probeSizes, defaultProcs int) (map[string]metric, error) {
	store, err := openStore(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	defer store.Close()
	p := &probes{sz: sz, procs: defaultProcs, seed: seed, dir: dir, out: map[string]metric{}, store: store,
		bench: exper.NewSuite(benchScale()), cold: exper.NewSuite(coldScale(seed, 0))}
	p.bench.SetStore(store)
	p.bank = p.bench.Bank("cifar10")
	_, opts, bseed := p.bench.BankBuildInputs("cifar10")
	p.key = core.BankKeyForPopulation(p.bench.Population("cifar10"), opts, bseed)

	for _, probe := range []func() error{
		p.dataAndTraining, p.coreBuild, p.storage, p.oracle, p.tunerAndMethods,
		p.experLayer, p.serveHandlers, p.serveMixSlice, p.journalLayer, p.distLayer,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// dataAndTraining probes data.Generate and the fl/nn/tensor training engine.
func (p *probes) dataAndTraining() error {
	gen := timeMedian(3, func() {
		for _, d := range exper.DatasetNames {
			spec, _, _ := p.cold.BankBuildInputs(d)
			data.MustGenerate(spec, rng.New(p.cold.Cfg.Seed).Split("pop-"+d))
		}
	})
	p.set("data.generate_ms", ms(gen), "ms")

	const rounds = 8
	hp := p.cold.SharedPool()[0]
	for _, d := range exper.DatasetNames {
		_, opts, _ := p.cold.BankBuildInputs(d)
		pop := p.cold.Population(d)
		tr, err := fl.NewTrainer(pop, hp, opts.Train, rng.New(p.seed).Split("probe-"+d))
		if err != nil {
			return fmt.Errorf("fl probe %s: %w", d, err)
		}
		tr.Round() // first round sizes the trainer's buffers
		p.set("fl.round_ms."+d, ms(timeMedian(rounds, tr.Round)), "ms")
		if d == "cifar10" {
			p.set("fl.round_allocs", mallocs(func() {
				for i := 0; i < rounds; i++ {
					tr.Round()
				}
			})/rounds, "count")
			p.set("fl.eval_clients_ms", ms(timeMedian(5, func() { tr.EvalClients(pop.Val) })), "ms")
		}
	}

	// One minibatch through the cifar10 MLP's first layer: X(32×24)·W(48×24)ᵀ.
	spec := data.CIFAR10Like()
	const batch = 32
	a, b, c := tensor.NewMat(batch, spec.FeatureDim), tensor.NewMat(spec.Hidden, spec.FeatureDim), tensor.NewMat(batch, spec.Hidden)
	g := rng.New(p.seed).Split("matmul")
	for i := range a.Data {
		a.Data[i] = g.Float64()
	}
	for i := range b.Data {
		b.Data[i] = g.Float64()
	}
	const iters = 2000
	mm := timeMedian(9, func() {
		for i := 0; i < iters; i++ {
			tensor.MatMulNT(a, b, c)
		}
	})
	p.set("tensor.matmul_nt_ns_per_mac", float64(mm)/float64(iters*batch*spec.FeatureDim*spec.Hidden), "ns")
	return nil
}

// coldPlan is the seed's first cold cifar10 bank as a build plan.
func (p *probes) coldPlan() (*data.Population, core.BuildOptions, uint64, *core.BuildPlan, error) {
	_, opts, seed := p.cold.BankBuildInputs("cifar10")
	pop := p.cold.Population("cifar10")
	plan, err := core.NewBuildPlan(pop, opts, seed)
	return pop, opts, seed, plan, err
}

// coreBuild probes plan → train range → assemble.
func (p *probes) coreBuild() error {
	pop, opts, seed, plan, err := p.coldPlan()
	if err != nil {
		return err
	}
	p.set("core.plan_ms", ms(timeMedian(3, func() { core.NewBuildPlan(pop, opts, seed) })), "ms")
	n := plan.NumConfigs()
	train := func(workers int) (*core.BankShard, time.Duration, error) {
		start := time.Now()
		sh, err := plan.TrainRange(0, n, workers)
		return sh, time.Since(start), err
	}
	// One worker against one per P, with every P the process started with.
	sh, one, err := train(1)
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(p.procs)
	_, all, err := train(p.procs)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	p.set("core.train_range_ms_per_config", ms(one)/float64(n), "ms")
	p.set("core.train_range_speedup", float64(one)/float64(all), "x")
	var aerr error
	p.set("core.assemble_ms", ms(timeMedian(3, func() { _, aerr = core.AssembleBank(plan, []*core.BankShard{sh}) })), "ms")
	return aerr
}

// storage probes the write side (v4 save, store put) and the read side
// (store get, mapped open) on the bench bank.
func (p *probes) storage() error {
	path := filepath.Join(p.dir, "probe.bank")
	var err error
	p.set("core.save_v4_ms", ms(timeMedian(5, func() {
		if e := core.SaveBankV4(p.bank, path); e != nil {
			err = e
		}
	})), "ms")
	p.set("core.store_put_ms", ms(timeMedian(5, func() {
		if e := p.store.Put("probe-put", p.bank); e != nil {
			err = e
		}
	})), "ms")
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	values := len(p.bank.Partitions) * len(p.bank.Configs) * len(p.bank.Rounds) * p.bank.NumClients()
	p.set("core.bank_file_bytes", float64(fi.Size()), "B")
	p.set("core.store_amplification", float64(fi.Size())/float64(8*values), "x")

	p.set("core.store_get_us", us(timeMedian(200, func() {
		if b, e := p.store.Get(p.key); e != nil || b == nil {
			err = fmt.Errorf("store get missed the bench bank (err %v)", e)
		}
	})), "us")
	open := func(fn func(string) (*core.Bank, io.Closer, error)) time.Duration {
		return timeMedian(50, func() {
			_, c, e := fn(path)
			if e != nil {
				err = e
				return
			}
			c.Close()
		})
	}
	p.set("core.open_mapped_us", us(open(core.OpenBankMapped)), "us")
	p.set("core.open_mapped_warm_us", us(open(core.OpenBankMappedWarm)), "us")
	return err
}

// probeNoise is the setting the oracle, tuner and method probes share: the
// subsampling family, the first of the four.
func probeNoise() core.Noise { return coreNoise(family(0)) }

func (p *probes) newOracle() (*core.BankOracle, error) {
	n := probeNoise()
	return core.NewBankOracle(p.bank, n.HeterogeneityP, n.Scheme(), p.seed)
}

// oracle probes oracle construction and the row-sweep kernel at 64 cohorts.
func (p *probes) oracle() error {
	o, err := p.newOracle()
	if err != nil {
		return err
	}
	p.set("core.new_oracle_us", us(timeMedian(200, func() { p.newOracle() })), "us")

	const cohorts = 64
	seeds := make([]uint64, cohorts)
	g := rng.New(p.seed).Split("cohorts")
	for i := range seeds {
		seeds[i] = g.Uint64()
	}
	var scratch eval.MultiScratch
	rows := len(p.bank.Configs) * len(p.bank.Rounds)
	sweep := func() {
		for ci := range p.bank.Configs {
			for ri := range p.bank.Rounds {
				o.EvaluateRows(ci, ri, seeds, &scratch)
			}
		}
	}
	sweep() // grows the scratch to the pool size
	p.nsPerEval = float64(timeMedian(15, sweep)) / float64(rows*cohorts)
	p.set("core.evaluate_rows_ns_per_eval", p.nsPerEval, "ns")
	p.set("core.evaluate_rows_allocs", mallocs(sweep)/float64(rows), "count")
	return nil
}

// countingOracle counts a method's evaluations exactly. Embedding the
// interface hides the bank oracle's batch entry point, so every ask arrives
// through Evaluate.
type countingOracle struct {
	hpo.Oracle
	evals int
}

func (c *countingOracle) Evaluate(cfg fl.HParams, rounds int, evalID string) float64 {
	c.evals++
	return c.Oracle.Evaluate(cfg, rounds, evalID)
}

// tunerFor builds the tuner exactly as exper.Suite.RunTune does.
func tunerFor(cfg exper.Config, m hpo.Method, noise core.Noise) core.Tuner {
	return core.Tuner{Method: m, Space: hpo.DefaultSpace(),
		Settings: noise.Settings(hpo.Settings{Budget: cfg.Budget()})}
}

// tunerAndMethods probes core.Tuner.RunTrials (the block scheduler) and each
// method's own Run, for the four methods tune_heavy submits.
func (p *probes) tunerAndMethods() error {
	o, err := p.newOracle()
	if err != nil {
		return err
	}
	for _, name := range tuneMethods {
		m, err := hpo.MethodByName(name)
		if err != nil {
			return err
		}
		tn := tunerFor(p.bench.Cfg, m, probeNoise())
		trials := func() { tn.RunTrials(o, tuneTrials, rng.New(p.seed).Split("fedtune")) }
		trials()
		d := timeMedian(5, trials)
		p.set("core.trials_per_s."+name, tuneTrials/d.Seconds(), "1/s")
		p.set("core.allocs_per_trial."+name, mallocs(trials)/tuneTrials, "count")

		counted := &countingOracle{Oracle: o.WithTrial(0)}
		run := func() { m.Run(counted, tn.Space, tn.Settings, rng.New(p.seed).Split("trial-0")) }
		run()
		evals := float64(counted.evals)
		p.set("hpo.evals_per_trial."+name, evals, "count")
		p.set("hpo.run_us_per_trial."+name, us(timeMedian(20, run)), "us")
		if name == "rs" {
			p.set("core.kernel_share.rs", evals*tuneTrials*p.nsPerEval/float64(d), "frac")
		}
	}
	return nil
}

// experLayer probes what exper adds over core: RunTune against RunTrials,
// and warm scheduler passes split into driver and bank-task time.
func (p *probes) experLayer() error {
	req, err := tuneRequestOf(tuneHeavyRequest(p.seed, 0, "rs"))
	if err != nil {
		return err
	}
	tune := timeMedian(9, func() {
		if _, e := p.bench.RunTune(req, nil); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	o, err := core.NewBankOracle(p.bank, req.Noise.HeterogeneityP, req.Noise.Scheme(), req.Seed)
	if err != nil {
		return err
	}
	tn := tunerFor(p.bench.Cfg, req.Method, req.Noise)
	trials := timeMedian(9, func() { tn.RunTrials(o, req.Trials, rng.New(req.Seed).Split("fedtune")) })
	p.set("exper.run_tune_overhead_us", us(tune-trials), "us")

	fw := &figuresWarm{seed: p.seed}
	figDir, err := os.MkdirTemp(p.dir, "fig-")
	if err != nil {
		return err
	}
	if err := fw.boot(figDir, 0); err != nil {
		return err
	}
	defer fw.close()
	drivers, banks, err := fw.taskTimes()
	p.set("exper.drivers_ms", ms(drivers), "ms")
	p.set("exper.bank_tasks_ms", ms(banks), "ms")
	return err
}

// taskTimes runs three warm scheduler passes and returns the medians of the
// summed elapsed time of the driver tasks and of the artifact (population,
// bank) tasks.
func (w *figuresWarm) taskTimes() (drivers, artifacts time.Duration, err error) {
	var ds, as []time.Duration
	for pass := 0; pass < 3; pass++ {
		suite := exper.NewSuite(figScale(w.seed))
		suite.SetStore(w.store)
		events := make(chan exper.Event, 256) // a pass emits two events per task, under a hundred in all
		sch := exper.Scheduler{OnEvent: func(e exper.Event) { events <- e }}
		if _, err := sch.Run(suite, exper.AllJobs()); err != nil {
			return 0, 0, err
		}
		close(events)
		var d, a time.Duration
		for e := range events {
			if e.Kind != exper.TaskDone {
				continue
			}
			if strings.Contains(e.Task, ":") {
				a += e.Elapsed
			} else {
				d += e.Elapsed
			}
		}
		ds, as = append(ds, d), append(as, a)
	}
	return medianDur(ds), medianDur(as), nil
}

// handlerRig serves requests through serve.NewServer(mgr).ServeHTTP on a
// recorder: the handler, manager, registry and journal with no network and
// no client.
type handlerRig struct {
	mgr *serve.Manager
	srv *serve.Server
}

func newHandlerRig(store *core.BankStore, journalDir string, scales map[string]exper.Config) (*handlerRig, error) {
	jr, err := serve.OpenRunJournal(serve.JournalOptions{Dir: journalDir})
	if err != nil {
		return nil, err
	}
	mgr := serve.NewManager(serve.Options{Store: store, Journal: jr, Scales: scales})
	return &handlerRig{mgr: mgr, srv: serve.NewServer(mgr)}, nil
}

func (h *handlerRig) close() error { return h.mgr.Shutdown(context.Background()) }

// do serves one request and returns the recorder and the handler's time.
func (h *handlerRig) do(method, path string, body any, ifNoneMatch string) (*httptest.ResponseRecorder, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, 0, err
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	h.srv.ServeHTTP(rec, req)
	d := time.Since(start)
	if rec.Code >= 400 {
		return rec, d, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return rec, d, nil
}

// runToDone submits req and follows its event stream to the terminal event,
// all at handler level. It returns the run id and the submit handler's time.
func (h *handlerRig) runToDone(req client.RunRequest) (string, time.Duration, error) {
	rec, d, err := h.do(http.MethodPost, "/v1/runs", req, "")
	if err != nil {
		return "", 0, err
	}
	var st client.RunStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return "", 0, err
	}
	_, _, err = h.do(http.MethodGet, "/v1/runs/"+st.ID+"/events", nil, "")
	return st.ID, d, err
}

// driveSession opens a driven session at handler level, answers every ask
// with the server's own bank evaluation, and deletes it. It returns the open
// handler's time and each ask+tell pair's.
func (h *handlerRig) driveSession(req client.SessionRequest) (open time.Duration, pairs []time.Duration, err error) {
	rec, open, err := h.do(http.MethodPost, "/v1/sessions", req, "")
	if err != nil {
		return 0, nil, err
	}
	var st client.SessionStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return 0, nil, err
	}
	base := "/v1/sessions/" + st.ID
	for {
		rec, askD, err := h.do(http.MethodPost, base+"/ask", nil, "")
		if err != nil {
			return 0, nil, err
		}
		var ask client.AskResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ask); err != nil {
			return 0, nil, err
		}
		if ask.Done {
			break
		}
		tell := client.TellRequest{Answers: []client.TellAnswer{{AskID: ask.Asks[0].ID}}}
		_, tellD, err := h.do(http.MethodPost, base+"/tell", tell, "")
		if err != nil {
			return 0, nil, err
		}
		pairs = append(pairs, askD+tellD)
	}
	_, _, err = h.do(http.MethodDelete, base, nil, "")
	return open, pairs, err
}

// serveHandlers probes each handler on a recorder, the list handler over a
// registry of sz.registryFill runs.
func (p *probes) serveHandlers() error {
	registryFill := p.sz.registryFill
	h, err := newHandlerRig(p.store, filepath.Join(p.dir, "journal-handlers"), map[string]exper.Config{scaleBench: benchScale()})
	if err != nil {
		return err
	}
	defer h.close()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	submit := make([]time.Duration, 0, registryFill)
	var lastID string
	for i := 0; i < registryFill; i++ {
		id, d, err := h.runToDone(serveMixRequest(p.seed, 2*warmBase+i))
		if err != nil {
			return err
		}
		submit, lastID = append(submit, d), id
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.set("serve.handler_submit_us", us(medianDur(submit)), "us")
	p.set("serve.heap_bytes_per_run", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/float64(registryFill), "B")

	timeHandler := func(reps int, method, path string, body any, inm string, wantCode int) (time.Duration, error) {
		ds := make([]time.Duration, reps)
		for i := range ds {
			rec, d, err := h.do(method, path, body, inm)
			if err != nil {
				return 0, err
			}
			if rec.Code != wantCode {
				return 0, fmt.Errorf("%s %s: status %d, want %d", method, path, rec.Code, wantCode)
			}
			ds[i] = d
		}
		return medianDur(ds), nil
	}
	first := serveMixRequest(p.seed, 2*warmBase)
	rec, _, err := h.do(http.MethodGet, "/v1/runs/"+lastID, nil, "")
	if err != nil {
		return err
	}
	p.set("serve.result_body_bytes", float64(rec.Body.Len()), "B")
	etag := rec.Header().Get("ETag")
	for _, probe := range []struct {
		name, method, path string
		body               any
		inm                string
		code               int
	}{
		{"serve.handler_dedup_us", http.MethodPost, "/v1/runs", first, "", http.StatusOK},
		{"serve.handler_get_us", http.MethodGet, "/v1/runs/" + lastID, nil, "", http.StatusOK},
		{"serve.handler_get304_us", http.MethodGet, "/v1/runs/" + lastID, nil, etag, http.StatusNotModified},
		{"serve.handler_list_us", http.MethodGet, "/v1/runs?state=done&limit=20", nil, "", http.StatusOK},
	} {
		d, err := timeHandler(200, probe.method, probe.path, probe.body, probe.inm, probe.code)
		if err != nil {
			return err
		}
		p.set(probe.name, us(d), "us")
	}

	var open, pairs []time.Duration
	for i := 0; i < 20; i++ {
		o, ps, err := h.driveSession(tuneHeavySession(p.seed, 2*warmBase+i))
		if err != nil {
			return err
		}
		open, pairs = append(open, o), append(pairs, ps...)
	}
	p.set("serve.session_open_us", us(medianDur(open)), "us")
	p.set("serve.session_ask_tell_us", us(medianDur(pairs)), "us")

	p.set("obs.metrics_render_us", us(timeMedian(50, func() { h.mgr.Metrics().WritePrometheus(io.Discard) })), "us")
	return nil
}

// serveMixSlice drives a short serve_mix over the real daemon and reports
// the client-observed split of a visit, the server's own spans for a sample
// of runs, and the client floor.
func (p *probes) serveMixSlice() error {
	mixSliceVisits, spanSample := p.sz.mixVisits, p.sz.spanSample
	dir := filepath.Join(p.dir, "mix")
	if err := os.MkdirAll(filepath.Join(dir, "cache"), 0o755); err != nil {
		return err
	}
	// Share the probe store's entry so the slice starts warm.
	if err := os.Link(p.store.Path(p.key), filepath.Join(dir, "cache", p.key+".bank")); err != nil {
		return err
	}
	w := &serveMix{seed: p.seed}
	if err := w.boot(dir, mixSliceVisits/10); err != nil {
		return err
	}
	defer w.close()
	// bank.lookup appears only on the run that resolves the suite's bank
	// slot, the first warm-up visit; the daemon retains 1024 traces, so it
	// is read before the slice pushes it out.
	ctx := context.Background()
	first, err := w.st.c.Trace(ctx, w.warm[0].id)
	if err != nil {
		return err
	}
	var lookup []float64
	if s := first.Span("bank.lookup"); s != nil {
		lookup = append(lookup, s.DurationMS*1e3)
	}
	sent := w.requests()
	for i := 0; i < mixSliceVisits; i++ {
		if err := w.op(i, nil); err != nil {
			return fmt.Errorf("serve_mix slice visit %d: %w", i, err)
		}
	}
	p.set("client.requests_per_run", float64(w.requests()-sent)/float64(mixSliceVisits), "count")
	for part, name := range serveMixParts {
		p.set("serve.mix_"+name+"_p50_us", median(w.parts[part])/1e3, "us")
	}

	spans := map[string][]float64{}
	var covered []float64
	for i := 0; i < spanSample; i++ {
		v := i * (mixSliceVisits / spanSample)
		tr, err := w.st.c.Trace(ctx, w.timed[v].id)
		if err != nil {
			return err
		}
		sum := 0.0
		for _, s := range tr.Spans {
			spans[s.Name] = append(spans[s.Name], s.DurationMS*1e3)
			sum += s.DurationMS
		}
		covered = append(covered, sum*1e6/w.untilDone[v])
	}
	spans["bank.lookup"] = lookup
	for _, name := range []string{"queue.wait", "journal.append", "bank.lookup", "oracle.trials", "response.encode"} {
		if len(spans[name]) == 0 {
			return fmt.Errorf("no %s span in %d sampled run traces", name, spanSample)
		}
		p.set("serve.span_"+strings.ReplaceAll(name, ".", "_")+"_us", median(spans[name]), "us")
	}
	p.set("serve.span_coverage", median(covered), "frac")

	p.set("client.roundtrip_us", us(timeMedian(500, func() { w.st.c.GetHealth(ctx) })), "us")

	stats := w.st.mgr.Journal().Stats()
	p.set("journal.bytes_per_run", float64(stats.SnapshotBytes+stats.WALBytes)/float64(mixSliceVisits+mixSliceVisits/10), "B")
	return nil
}

// journalLayer probes the journal package directly: append on tmpfs, append
// on the real disk (sandbox-only: it measures this box's virtual disk, so it
// is informational and never compared), compaction and replay.
func (p *probes) journalLayer() error {
	journalRecords := p.sz.journalRecords
	per10k := 10000 / float64(journalRecords)
	payload := bytes.Repeat([]byte("x"), 400) // about one submit record
	appendMedian := func(dir string, n int, keep bool) (time.Duration, error) {
		j, _, err := journal.Open(journal.Options{Dir: dir})
		if err != nil {
			return 0, err
		}
		if !keep {
			defer os.RemoveAll(dir)
		}
		defer j.Close()
		ds := make([]time.Duration, n)
		for i := range ds {
			start := time.Now()
			if err := j.Append("submit", payload); err != nil {
				return 0, err
			}
			ds[i] = time.Since(start)
		}
		return medianDur(ds), nil
	}
	dir := filepath.Join(p.dir, "journal-probe")
	d, err := appendMedian(dir, journalRecords, true)
	if err != nil {
		return err
	}
	p.set("journal.append_us", us(d), "us")

	diskDir, err := filepath.Abs(filepath.Join(".bench_build", "disk-probe"))
	if err != nil {
		return err
	}
	if d, err = appendMedian(diskDir, 30, false); err != nil {
		return err
	}
	p.set("journal.append_disk_us", us(d), "us")

	start := time.Now()
	j, recs, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer j.Close()
	if len(recs) != journalRecords {
		return fmt.Errorf("journal replayed %d records, want %d", len(recs), journalRecords)
	}
	p.set("journal.replay_ms_per_10k", ms(time.Since(start))*per10k, "ms")
	start = time.Now()
	if err := j.Compact(recs); err != nil {
		return err
	}
	p.set("journal.compact_ms_per_10k", ms(time.Since(start))*per10k, "ms")
	return nil
}

// distLayer builds the cold cifar10 bank through the coordinator with one
// in-process shard builder and no workers, against a local build of the
// same plan: the fleet path's own cost.
func (p *probes) distLayer() error {
	pop, opts, seed, _, err := p.coldPlan()
	if err != nil {
		return err
	}
	ctx := context.Background()
	start := time.Now()
	if _, _, err := (core.LocalBuilder{}).BuildBank(ctx, pop, opts, seed); err != nil {
		return err
	}
	local := time.Since(start)
	coord := dist.NewCoordinator(dist.CoordinatorOptions{SelfBuild: 1})
	defer coord.Close()
	start = time.Now()
	if _, err := coord.BuildSharded(ctx, pop, opts, seed); err != nil {
		return err
	}
	sharded := time.Since(start)
	p.set("dist.sharded_build_ms", ms(sharded), "ms")
	p.set("dist.sharded_build_overhead_frac", float64(sharded-local)/float64(local), "frac")
	return nil
}
