package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/exper"
	"noisyeval/internal/rng"
	"noisyeval/pkg/client"
)

// runTraced is the traced run: the workload at a tenth of its op count with
// harness spans around every client call on every second op (the untraced
// ops in between give the tracing overhead), the same slice once more on the
// process's default GOMAXPROCS, then every layer probe, then the same
// generated requests replayed in-process one layer down at a time.
func runTraced(cfg runConfig, w workload, sc *scratch, rec *record, defaultProcs int) error {
	pairs := max(1, cfg.n/10)
	slice := cfg
	slice.n, slice.setups = 2*pairs, 1
	tr := newRecorder(slice.n)
	m, err := measure(slice, w, sc, rec, tr)
	if err != nil {
		return err
	}
	var plain, spanned []float64
	for i, l := range m.latencies {
		if tr.spans(i) {
			spanned = append(spanned, l)
		} else {
			plain = append(plain, l)
		}
	}
	opMs := median(plain) / 1e6
	one := rec.Metrics

	all, err := measureOn(defaultProcs, slice)
	if err != nil {
		return fmt.Errorf("slice on %d Ps: %w", defaultProcs, err)
	}
	rec.OpsAttempted += all.OpsAttempted
	rec.OpsFailed += all.OpsFailed
	rec.Errors = append(rec.Errors, all.Errors...)

	dir, err := sc.sub("probes")
	if err != nil {
		return err
	}
	out, err := runProbes(cfg.seed, dir, cfg.sizes, defaultProcs)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	p := &replayer{cfg: cfg, dir: dir, out: out, tr: tr}
	layers, err := p.layers(slice.n)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	// The client's share is measured on its own: the requests an op sends
	// times the bare GetHealth round trip.
	var floor []layerTime
	if m.requests > 0 {
		perOp := float64(m.requests) / float64(len(m.latencies))
		floor = []layerTime{{Layer: fmt.Sprintf("pkg/client + loopback HTTP (%.1f requests × health round trip)", perOp),
			CallMs: perOp * out["client.roundtrip_us"].Value / 1e3}}
	}
	layers, unaccounted := ledger(opMs, floor, layers)

	// The slice's end-to-end numbers describe a tenth-size run; a traced run
	// reports the per-layer catalogue only.
	rec.Metrics = out
	out["harness.trace_overhead_frac"] = metric{median(spanned)/median(plain) - 1, "frac"}
	out["harness.op_p99_ms"] = metric{percentile(m.latencies, 99) / 1e6, "ms"}
	// The other side of every choice the program makes from its P count:
	// the gated numbers are measured on measuredProcs.
	out["harness.allprocs_ops_per_s"] = all.Metrics["ops_per_s"]
	out["harness.allprocs_op_p50_ms"] = all.Metrics["op_p50_ms"]
	out["harness.allprocs_cpu_ms_per_op"] = all.Metrics["cpu_ms_per_op"]
	out["harness.allprocs_speedup"] = metric{all.Metrics["ops_per_s"].Value / one["ops_per_s"].Value, "x"}
	// The reference kernel on either side of the slice: a large drift means
	// the machine changed under the run.
	out["harness.calib_ms"] = metric{rec.RefMs, "ms"}
	out["harness.calib_drift_frac"] = metric{rec.RefDrift, "frac"}
	out["ledger.unaccounted_frac"] = metric{unaccounted, "frac"}
	if err := checkCatalogue(out, perLayer); err != nil {
		return err
	}
	return writeTraceFile(cfg.outDir, traceFile{Workload: cfg.workload, Seed: cfg.seed, Ops: slice.n,
		Layers: layers, Metrics: out, Spans: tr.all})
}

// measureOn runs the slice once more, untraced, over a scratch tree of its
// own with GOMAXPROCS at procs, and returns that run's record.
func measureOn(procs int, slice runConfig) (record, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	rec := record{Metrics: map[string]metric{}}
	w, err := newWorkload(slice.workload, slice.seed, max(slice.n, 2))
	if err != nil {
		return rec, err
	}
	sc, err := newScratch()
	if err != nil {
		return rec, err
	}
	defer sc.remove()
	_, err = measure(slice, w, sc, &rec, nil)
	return rec, err
}

// replayer replays the first ops of the traced slice below the client.
type replayer struct {
	cfg runConfig
	dir string
	out map[string]metric
	tr  *recorder
}

// layers returns the workload's layers below the client op, top down, each
// with the median per-op time of the same inputs replayed at that layer.
func (p *replayer) layers(ops int) ([]layerTime, error) {
	seed := p.cfg.seed
	switch p.cfg.workload {
	case "serve_mix":
		// A visit's cost grows with the registry, so the handler replay
		// runs every visit of the slice, warm-up included.
		reqs := make([][]client.RunRequest, min(ops, 200))
		for i := range reqs {
			reqs[i] = []client.RunRequest{serveMixRequest(seed, i)}
		}
		return p.servedLayers(max(1, ops/10), ops, reqs, p.handlerVisit)
	case "tune_heavy":
		reqs := make([][]client.RunRequest, min(ops, 4))
		for i := range reqs {
			for _, m := range tuneMethods {
				reqs[i] = append(reqs[i], tuneHeavyRequest(seed, i, m))
			}
		}
		return p.servedLayers(0, len(reqs), reqs, p.handlerCell)
	case "figures_warm":
		return []layerTime{
			{Layer: "exper.Scheduler.Run", CallMs: median(p.tr.durations("exper.scheduler_run")) / 1e6},
			{Layer: "exper drivers (Σ task time)", CallMs: p.out["exper.drivers_ms"].Value},
		}, nil
	case "cold_build":
		return p.coldLayers()
	}
	return nil, fmt.Errorf("no layer replay for workload %q", p.cfg.workload)
}

// servedLayers replays ops whose work is runs against the bench bank:
// through the handlers on a recorder (warm untimed ops, then timed ones),
// through exper.Suite.RunTune, through core.Tuner.RunTrials, and as the row
// kernel's share (exact evaluation count × measured time per evaluation).
// reqs lists, per library-level op, the runs the op submits.
func (p *replayer) servedLayers(warm, timed int, reqs [][]client.RunRequest, handlerOp func(h *handlerRig, base, i int, history *[]runOutcome) error) ([]layerTime, error) {
	// The probes' store holds the bench bank.
	store, err := openStore(filepath.Join(p.dir, "cache"))
	if err != nil {
		return nil, err
	}
	defer store.Close()
	h, err := newHandlerRig(store, filepath.Join(p.dir, "journal-replay"), map[string]exper.Config{scaleBench: benchScale()})
	if err != nil {
		return nil, err
	}
	defer h.close()
	suite := exper.NewSuite(benchScale())
	suite.SetStore(store)
	bank := suite.Bank("cifar10")

	var handler, tune, trials, kernel []float64
	var history []runOutcome
	for i := 0; i < warm; i++ {
		if err := handlerOp(h, warmBase, i, &history); err != nil {
			return nil, err
		}
	}
	history = nil
	for i := 0; i < timed; i++ {
		start := time.Now()
		if err := handlerOp(h, 0, i, &history); err != nil {
			return nil, err
		}
		handler = append(handler, float64(time.Since(start)))
	}
	for _, op := range reqs {
		var tuneD, trialsD time.Duration
		kernelNs := 0.0
		for _, req := range op {
			treq, err := tuneRequestOf(req)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := suite.RunTune(treq, nil); err != nil {
				return nil, err
			}
			tuneD += time.Since(start)

			o, err := core.NewBankOracle(bank, treq.Noise.HeterogeneityP, treq.Noise.Scheme(), treq.Seed)
			if err != nil {
				return nil, err
			}
			tn := tunerFor(suite.Cfg, treq.Method, treq.Noise)
			start = time.Now()
			tn.RunTrials(o, treq.Trials, rng.New(treq.Seed).Split("fedtune"))
			trialsD += time.Since(start)

			kernelNs += p.out["hpo.evals_per_trial."+req.Method].Value * float64(req.Trials) * p.out["core.evaluate_rows_ns_per_eval"].Value
		}
		tune, trials, kernel = append(tune, float64(tuneD)), append(trials, float64(trialsD)), append(kernel, kernelNs)
	}
	return []layerTime{
		{Layer: "serve handlers + manager + journal (recorder, no network)", CallMs: median(handler) / 1e6},
		{Layer: "exper.Suite.RunTune", CallMs: median(tune) / 1e6},
		{Layer: "core.Tuner.RunTrials + hpo", CallMs: median(trials) / 1e6},
		{Layer: "eval row kernel (evals × ns/eval)", CallMs: median(kernel) / 1e6},
	}, nil
}

// handlerVisit is one serve_mix visit at handler level.
func (p *replayer) handlerVisit(h *handlerRig, base, i int, history *[]runOutcome) error {
	req := serveMixRequest(p.cfg.seed, base+i)
	id, _, err := h.runToDone(req)
	if err != nil {
		return err
	}
	rec, _, err := h.do(http.MethodGet, "/v1/runs/"+id, nil, "")
	if err != nil {
		return err
	}
	*history = append(*history, runOutcome{req: req, id: id, etag: rec.Header().Get("ETag")})
	old := (*history)[serveMixRevisit(i)]
	if _, _, err := h.do(http.MethodPost, "/v1/runs", old.req, ""); err != nil {
		return err
	}
	if rec, _, err = h.do(http.MethodGet, "/v1/runs/"+old.id, nil, old.etag); err != nil {
		return err
	}
	if rec.Code != http.StatusNotModified {
		return fmt.Errorf("handler replay: conditional get answered %d", rec.Code)
	}
	_, _, err = h.do(http.MethodGet, "/v1/runs?state=done&limit=20", nil, "")
	return err
}

// handlerCell is one tune_heavy cell at handler level.
func (p *replayer) handlerCell(h *handlerRig, _, i int, _ *[]runOutcome) error {
	for _, m := range tuneMethods {
		id, _, err := h.runToDone(tuneHeavyRequest(p.cfg.seed, i, m))
		if err != nil {
			return err
		}
		if _, _, err := h.do(http.MethodGet, "/v1/runs/"+id, nil, ""); err != nil {
			return err
		}
	}
	_, _, err := h.driveSession(tuneHeavySession(p.cfg.seed, i))
	return err
}

// replayScale is a cold scale no slice op used.
const replayScale = 2 * warmBase

// coldLayers replays one cold_build op on fresh scales and fresh stores:
// through the handlers, through exper.Suite.RunTune, through the core build
// pipeline (plan, train, assemble, store put), and as training alone.
func (p *replayer) coldLayers() ([]layerTime, error) {
	seed := p.cfg.seed
	freshStore := func(name string) (*core.BankStore, error) { return openStore(filepath.Join(p.dir, name)) }

	hstore, err := freshStore("cold-handler-cache")
	if err != nil {
		return nil, err
	}
	defer hstore.Close()
	idx := replayScale
	h, err := newHandlerRig(hstore, filepath.Join(p.dir, "journal-cold"), map[string]exper.Config{coldScaleName(idx): coldScale(seed, idx)})
	if err != nil {
		return nil, err
	}
	defer h.close()
	start := time.Now()
	for _, d := range exper.DatasetNames {
		id, _, err := h.runToDone(coldBuildRequest(seed, idx, d))
		if err != nil {
			return nil, err
		}
		if _, _, err := h.do(http.MethodGet, "/v1/runs/"+id, nil, ""); err != nil {
			return nil, err
		}
	}
	handler := time.Since(start)

	tstore, err := freshStore("cold-tune-cache")
	if err != nil {
		return nil, err
	}
	defer tstore.Close()
	suite := exper.NewSuite(coldScale(seed, idx+1))
	suite.SetStore(tstore)
	start = time.Now()
	for _, d := range exper.DatasetNames {
		treq, err := tuneRequestOf(coldBuildRequest(seed, idx+1, d))
		if err != nil {
			return nil, err
		}
		if _, err := suite.RunTune(treq, nil); err != nil {
			return nil, err
		}
	}
	tune := time.Since(start)

	bstore, err := freshStore("cold-build-cache")
	if err != nil {
		return nil, err
	}
	defer bstore.Close()
	plans := exper.NewSuite(coldScale(seed, idx+2))
	var build, train time.Duration
	for _, d := range exper.DatasetNames {
		_, opts, bseed := plans.BankBuildInputs(d)
		pop := plans.Population(d)
		start = time.Now()
		plan, err := core.NewBuildPlan(pop, opts, bseed)
		if err != nil {
			return nil, err
		}
		trainStart := time.Now()
		sh, err := plan.TrainRange(0, plan.NumConfigs(), 0)
		if err != nil {
			return nil, err
		}
		train += time.Since(trainStart)
		bank, err := core.AssembleBank(plan, []*core.BankShard{sh})
		if err != nil {
			return nil, err
		}
		key := core.BankKeyForPopulation(pop, opts, bseed)
		if err := bstore.Put(key, bank); err != nil {
			return nil, err
		}
		if b, err := bstore.Get(key); err != nil || b == nil {
			return nil, fmt.Errorf("cold replay: stored %s bank not readable (err %v)", d, err)
		}
		build += time.Since(start)
	}
	return []layerTime{
		{Layer: "serve handlers + manager + journal (recorder, no network)", CallMs: ms(handler)},
		{Layer: "exper.Suite.RunTune (data.Generate, build, tune)", CallMs: ms(tune)},
		{Layer: "core plan + TrainRange + AssembleBank + store Put/Get", CallMs: ms(build)},
		{Layer: "fl/nn/tensor training (TrainRange)", CallMs: ms(train)},
	}, nil
}
