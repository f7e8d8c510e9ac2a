package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/exper"
	"noisyeval/internal/fl"
	"noisyeval/internal/hpo"
	"noisyeval/internal/plot"
	"noisyeval/pkg/client"
)

// workload is one of the benchmark's four traffic shapes. A workload is
// driven by one caller: boot (one complete set-up), then op 0..n-1 timed,
// then quiesce (graceful shutdown, so the directory tree is final), then
// verify and digest, then close.
type workload interface {
	// boot performs one complete set-up under dir: directories, journal
	// open, daemon boot, the cold build of the workload's warm bank(s)
	// through the first request, and warmOps untimed ops on inputs disjoint
	// from the timed ones.
	boot(dir string, warmOps int) error
	// op runs timed op i with its per-op assertions.
	op(i int, tr *recorder) error
	// requests is how many HTTP requests the workload's client has sent.
	requests() int
	// quiesce stops whatever writes to the workload's directories.
	quiesce() error
	// verify runs the sampled post-run checks over timed ops 0..n-1 and
	// returns one error per failed op, keyed by op index.
	verify(n int) map[int]error
	// digest is the SHA-256 over every timed op's results, in op order.
	digest() string
	// close releases everything boot acquired.
	close() error
}

// workloadNames lists the workloads in the order the README documents them.
var workloadNames = []string{"serve_mix", "tune_heavy", "figures_warm", "cold_build"}

// frozenSeconds is the timed-region length the op counts below are sized
// for; BENCHMARK.json's run_seconds equals it.
const frozenSeconds = 12

// frozenOps is each workload's frozen op count: a timed region of about
// twelve seconds on the reference box on one P (README.md has the date and the
// calibration). The count is fixed rather
// than the time, so every commit does identical work and the registry and
// journal grow along the same trajectory.
var frozenOps = map[string]int{
	"serve_mix":    5000,
	"tune_heavy":   80,
	"figures_warm": 32,
	"cold_build":   4,
}

// opCount scales the frozen count to another region length. serve_mix's
// visits get dearer as the registry grows, so for it the scaling is only
// approximate away from frozenSeconds.
func opCount(name string, seconds int) int {
	return max(1, (frozenOps[name]*seconds+frozenSeconds/2)/frozenSeconds)
}

// newWorkload builds the named workload for n timed ops.
func newWorkload(name string, seed uint64, n int) (workload, error) {
	switch name {
	case "serve_mix":
		return &serveMix{seed: seed}, nil
	case "tune_heavy":
		return &tuneHeavy{seed: seed}, nil
	case "figures_warm":
		return &figuresWarm{seed: seed}, nil
	case "cold_build":
		return &coldBuild{seed: seed, n: n}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames, ", "))
}

// opTimeout bounds one client call chain; the run-level deadline is the
// runner's.
const opTimeout = 60 * time.Second

// traced runs fn inside a span.
func traced(tr *recorder, op int, name string, fn func() error) error {
	tr.begin(op, name)
	err := fn()
	tr.end()
	return err
}

// rawGet is the one raw net/http call of the harness: pkg/client exposes
// neither the ETag nor If-None-Match. It shares the client's connection.
func (s *stack) rawGet(ctx context.Context, id, ifNoneMatch string) (code int, etag string, body []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/runs/"+id, nil)
	if err != nil {
		return 0, "", nil, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := s.httpc.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("ETag"), body, err
}

// submitAndWait submits one run and follows it to its terminal status.
func submitAndWait(ctx context.Context, st *stack, tr *recorder, op int, req client.RunRequest) (client.RunStatus, error) {
	var sub, fin client.RunStatus
	err := traced(tr, op, "client.submit", func() (err error) {
		sub, err = st.c.SubmitRun(ctx, req)
		return err
	})
	if err != nil {
		return fin, fmt.Errorf("submit: %w", err)
	}
	err = traced(tr, op, "client.wait", func() (err error) {
		fin, err = st.c.WaitRun(ctx, sub.ID)
		return err
	})
	if err != nil {
		return fin, fmt.Errorf("wait %s: %w", sub.ID, err)
	}
	if fin.State != "done" || fin.Result == nil {
		return fin, fmt.Errorf("run %s ended %s: %s", fin.ID, fin.State, fin.Error)
	}
	return fin, nil
}

// runOutcome is what the harness keeps of one finished run: enough to
// digest it and to compare it with the in-process reference.
type runOutcome struct {
	req    client.RunRequest
	id     string
	key    string
	etag   string
	finals []float64
	best   *client.BestConfig
}

func outcomeOf(req client.RunRequest, st client.RunStatus, etag string) runOutcome {
	return runOutcome{req: req, id: st.ID, key: st.Key, etag: etag, finals: st.Result.Finals, best: st.Result.Best}
}

// digestFinals folds a run's per-trial final errors into h, bit for bit.
func digestFinals(h hash.Hash, finals []float64) {
	var buf [8]byte
	for _, f := range finals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
}

func sameHParams(c client.HParams, f fl.HParams) bool {
	return c.ServerLR == f.ServerLR && c.Beta1 == f.Beta1 && c.Beta2 == f.Beta2 &&
		c.LRDecay == f.LRDecay && c.ClientLR == f.ClientLR && c.ClientMomentum == f.ClientMomentum &&
		c.WeightDecay == f.WeightDecay && c.BatchSize == f.BatchSize && c.Epochs == f.Epochs
}

// tuneRequestOf converts a wire request to the library entry-point form.
func tuneRequestOf(req client.RunRequest) (exper.TuneRequest, error) {
	m, err := hpo.MethodByName(req.Method)
	if err != nil {
		return exper.TuneRequest{}, err
	}
	return exper.TuneRequest{Dataset: req.Dataset, Method: m, Noise: coreNoise(req.Noise),
		Trials: req.Trials, Seed: req.Seed}, nil
}

// checkAgainstReference reruns the request in-process through
// exper.Suite.RunTune over the same store and compares Finals, RunKey and
// Best field for field.
func checkAgainstReference(ref *exper.Suite, got runOutcome) error {
	treq, err := tuneRequestOf(got.req)
	if err != nil {
		return err
	}
	want, err := ref.RunTune(treq, nil)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if !slices.Equal(want.Finals, got.finals) {
		return fmt.Errorf("run %s: finals differ from reference", got.id)
	}
	if want.RunKey != got.key {
		return fmt.Errorf("run %s: key %s, reference %s", got.id, got.key, want.RunKey)
	}
	if (want.Best == nil) != (got.best == nil) {
		return fmt.Errorf("run %s: best presence differs from reference", got.id)
	}
	if want.Best != nil && (!sameHParams(got.best.Config, want.Best.Config) ||
		got.best.TrueErr != want.Best.True || got.best.Rounds != want.Best.Rounds) {
		return fmt.Errorf("run %s: best differs from reference", got.id)
	}
	return nil
}

// served is what the three daemon workloads share: the booted stack.
type served struct{ st *stack }

func (s *served) requests() int  { return s.st.sent.n }
func (s *served) quiesce() error { return s.st.shutdown() }
func (s *served) close() error   { return s.st.close() }

// digestRuns is the SHA-256 over the runs' per-trial final errors, in order.
func digestRuns(ops ...[]runOutcome) string {
	h := sha256.New()
	for _, runs := range ops {
		for _, r := range runs {
			digestFinals(h, r.finals)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sampleEvery is the stride of the post-run reference check: 10 % of ops.
const sampleEvery = 10

// ---------------------------------------------------------------- serve_mix

// serveMix is the client-visit workload: a light write beside three reads.
// serve, journal, pkg/client and the registry do nearly all the work and the
// oracle almost none (2 trials); the registry and journal grow with every
// visit, so size-dependent costs show.
type serveMix struct {
	served
	seed  uint64
	warm  []runOutcome
	timed []runOutcome
	// parts holds the client-observed latency of the four parts of each
	// timed visit (write, dedup, get304, list), in nanoseconds.
	parts [4][]float64
	// untilDone is the client-observed submit → terminal-event time of each
	// timed visit's write, in nanoseconds.
	untilDone []float64
}

var serveMixParts = [4]string{"write", "dedup", "get304", "list"}

func (w *serveMix) boot(dir string, warmOps int) error {
	st, err := bootStack(dir, map[string]exper.Config{scaleBench: benchScale()})
	if err != nil {
		return err
	}
	w.st, w.warm, w.timed = st, nil, nil
	for i := 0; i < warmOps; i++ {
		if err := w.visit(&w.warm, warmBase, i, nil, false); err != nil {
			return fmt.Errorf("warm-up visit %d: %w", i, err)
		}
	}
	return nil
}

func (w *serveMix) op(i int, tr *recorder) error {
	return w.visit(&w.timed, 0, i, tr, true)
}

// visit is one client visit. Write: submit a distinct key, stream its events
// to the terminal one, fetch the result and keep its ETag. Reads: re-submit
// an earlier visit's request (must dedup onto the same finished run), fetch
// that run with If-None-Match (must be 304), list the latest done runs.
func (w *serveMix) visit(tab *[]runOutcome, base, i int, tr *recorder, keepParts bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	st := w.st
	req := serveMixRequest(w.seed, base+i)
	t0 := time.Now()

	var sub client.RunStatus
	err := traced(tr, i, "client.submit", func() (err error) {
		sub, err = st.c.SubmitRun(ctx, req)
		return err
	})
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	err = traced(tr, i, "client.events", func() error {
		return st.c.StreamEvents(ctx, sub.ID, -1, func(client.Event) error { return nil })
	})
	if err != nil {
		return fmt.Errorf("events %s: %w", sub.ID, err)
	}
	done := time.Now()
	var fin client.RunStatus
	var etag string
	err = traced(tr, i, "http.get", func() error {
		code, tag, body, err := st.rawGet(ctx, sub.ID, "")
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("status %d", code)
		}
		etag = tag
		return json.Unmarshal(body, &fin)
	})
	if err != nil {
		return fmt.Errorf("get %s: %w", sub.ID, err)
	}
	if fin.State != "done" || fin.Result == nil || etag == "" {
		return fmt.Errorf("run %s ended %s (etag %q): %s", fin.ID, fin.State, etag, fin.Error)
	}
	*tab = append(*tab, outcomeOf(req, fin, etag))
	t1 := time.Now()

	j := serveMixRevisit(i)
	old := (*tab)[j]
	var again client.RunStatus
	err = traced(tr, i, "client.resubmit", func() (err error) {
		again, err = st.c.SubmitRun(ctx, old.req)
		return err
	})
	if err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}
	if again.ID != old.id || again.State != "done" {
		return fmt.Errorf("resubmit of visit %d: run %s (%s), want dedup onto %s", j, again.ID, again.State, old.id)
	}
	t2 := time.Now()

	err = traced(tr, i, "http.get304", func() error {
		code, _, _, err := st.rawGet(ctx, old.id, old.etag)
		if err == nil && code != http.StatusNotModified {
			err = fmt.Errorf("status %d, want 304", code)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("conditional get %s: %w", old.id, err)
	}
	t3 := time.Now()

	var page client.RunPage
	err = traced(tr, i, "client.list", func() (err error) {
		page, err = st.c.ListRuns(ctx, client.ListRunsOptions{State: "done", Limit: 20})
		return err
	})
	if err != nil {
		return fmt.Errorf("list: %w", err)
	}
	if len(page.Runs) == 0 || len(page.Runs) > 20 {
		return fmt.Errorf("list returned %d runs", len(page.Runs))
	}
	t4 := time.Now()

	if keepParts {
		for p, d := range [4]time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)} {
			w.parts[p] = append(w.parts[p], float64(d))
		}
		w.untilDone = append(w.untilDone, float64(done.Sub(t0)))
	}
	return nil
}

func (w *serveMix) verify(n int) map[int]error {
	return verifyRuns(w.st, n, func(i int) []runOutcome { return w.timed[i : i+1] })
}

// verifyRuns checks every sampleEvery-th op's runs against an in-process
// reference suite over the stack's store.
func verifyRuns(st *stack, n int, runsOf func(i int) []runOutcome) map[int]error {
	ref := exper.NewSuite(benchScale())
	ref.SetStore(st.store)
	failed := map[int]error{}
	for i := 0; i < n; i += sampleEvery {
		for _, got := range runsOf(i) {
			if err := checkAgainstReference(ref, got); err != nil {
				failed[i] = err
				break
			}
		}
	}
	if ref.BankBuilds() != 0 {
		failed[0] = fmt.Errorf("reference suite trained %d banks over a warm store", ref.BankBuilds())
	}
	return failed
}

func (w *serveMix) digest() string { return digestRuns(w.timed) }

// --------------------------------------------------------------- tune_heavy

// tuneHeavy runs Figure-8 cells: four 64-trial runs (rs, tpe, hb, bohb) on
// one (noise, seed), then the rs run's ask/tell twin. More than 95 % of the
// op is inside core.Tuner.RunTrials → hpo → the eval row kernel; the session
// rides along at about 5 % so /v1/sessions is exercised and parity-checked
// without its ping-pong noise owning a metric.
type tuneHeavy struct {
	served
	seed  uint64
	timed [][]runOutcome // per cell, in tuneMethods order
}

func (w *tuneHeavy) boot(dir string, warmOps int) error {
	st, err := bootStack(dir, map[string]exper.Config{scaleBench: benchScale()})
	if err != nil {
		return err
	}
	w.st, w.timed = st, nil
	for i := 0; i < warmOps; i++ {
		if _, err := w.cell(warmBase+i, i, nil); err != nil {
			return fmt.Errorf("warm-up cell %d: %w", i, err)
		}
	}
	return nil
}

func (w *tuneHeavy) op(i int, tr *recorder) error {
	runs, err := w.cell(i, i, tr)
	w.timed = append(w.timed, runs)
	return err
}

// cell runs input index idx; op is the span id.
func (w *tuneHeavy) cell(idx, op int, tr *recorder) ([]runOutcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	st := w.st
	runs := make([]runOutcome, 0, len(tuneMethods))
	for _, m := range tuneMethods {
		req := tuneHeavyRequest(w.seed, idx, m)
		fin, err := submitAndWait(ctx, st, tr, op, req)
		if err != nil {
			return runs, fmt.Errorf("%s: %w", m, err)
		}
		runs = append(runs, outcomeOf(req, fin, ""))
	}

	var sess, done client.SessionStatus
	err := traced(tr, op, "client.session_open", func() (err error) {
		sess, err = st.c.OpenSession(ctx, tuneHeavySession(w.seed, idx))
		return err
	})
	if err != nil {
		return runs, fmt.Errorf("open session: %w", err)
	}
	err = traced(tr, op, "client.session_drive", func() (err error) {
		done, err = st.c.DriveSession(ctx, sess.ID, 0)
		return err
	})
	if err != nil {
		return runs, fmt.Errorf("drive session %s: %w", sess.ID, err)
	}
	err = traced(tr, op, "client.session_close", func() error {
		_, err := st.c.CloseSession(ctx, sess.ID)
		return err
	})
	if err != nil {
		return runs, fmt.Errorf("close session %s: %w", sess.ID, err)
	}
	rs := runs[0].best
	if done.State != "done" || done.Best == nil || rs == nil {
		return runs, fmt.Errorf("session %s ended %s (best %v, run best %v)", sess.ID, done.State, done.Best != nil, rs != nil)
	}
	if done.Best.Config != rs.Config || done.Best.TrueErr != rs.TrueErr || done.Best.Rounds != rs.Rounds {
		return runs, fmt.Errorf("session %s: best differs from the rs run's best", sess.ID)
	}
	return runs, nil
}

func (w *tuneHeavy) verify(n int) map[int]error {
	return verifyRuns(w.st, n, func(i int) []runOutcome { return w.timed[i] })
}

func (w *tuneHeavy) digest() string { return digestRuns(w.timed...) }

// ------------------------------------------------------------- figures_warm

// figuresWarm is the repo's original user — the researcher regenerating the
// paper — with no daemon: every pass runs all sixteen drivers (every noise
// source, the proxy methods) on a fresh suite over a warm store and writes
// the .txt/.csv files as cmd/figures does. It is the read side of the
// storage engine and the library use of the oracle.
type figuresWarm struct {
	seed       uint64
	dir        string
	store      *core.BankStore
	coldDigest string
}

func (w *figuresWarm) boot(dir string, warmOps int) error {
	store, err := openStore(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	w.dir, w.store = dir, store
	cold, builds, err := w.pass("cold", nil, 0)
	if err != nil {
		return fmt.Errorf("cold pass: %w", err)
	}
	if builds == 0 {
		return fmt.Errorf("cold pass trained no bank")
	}
	w.coldDigest = cold
	for i := 0; i < warmOps; i++ {
		if err := w.warmPass(fmt.Sprintf("warm-%d", i), nil, i); err != nil {
			return fmt.Errorf("warm-up pass %d: %w", i, err)
		}
	}
	return nil
}

func (w *figuresWarm) op(i int, tr *recorder) error {
	return w.warmPass(fmt.Sprintf("pass-%d", i), tr, i)
}

func (w *figuresWarm) warmPass(out string, tr *recorder, op int) error {
	got, builds, err := w.pass(out, tr, op)
	if err != nil {
		return err
	}
	if builds != 0 {
		return fmt.Errorf("warm pass trained %d banks", builds)
	}
	if got != w.coldDigest {
		return fmt.Errorf("CSV digest %s differs from the cold pass's %s", got[:12], w.coldDigest[:12])
	}
	return nil
}

// pass regenerates every figure into dir/out/<out> and returns the SHA-256
// over all CSV rows plus how many banks the suite trained.
func (w *figuresWarm) pass(out string, tr *recorder, op int) (string, int64, error) {
	suite := exper.NewSuite(figScale(w.seed))
	suite.SetStore(w.store)
	var results []exper.Result
	err := traced(tr, op, "exper.scheduler_run", func() (err error) {
		results, err = exper.Scheduler{}.Run(suite, exper.AllJobs())
		return err
	})
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	err = traced(tr, op, "plot.write", func() error {
		outDir := filepath.Join(w.dir, "out", out)
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		for _, res := range results {
			if err := os.WriteFile(filepath.Join(outDir, res.ID+".txt"), []byte(res.Title+"\n\n"+res.Text()), 0o644); err != nil {
				return err
			}
			if err := plot.WriteCSV(filepath.Join(outDir, res.ID+".csv"), res.CSVHeader, res.CSVRows); err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\n%s\n", res.ID, strings.Join(res.CSVHeader, ","))
			for _, row := range res.CSVRows {
				fmt.Fprintln(h, strings.Join(row, ","))
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil)), suite.BankBuilds(), err
}

func (w *figuresWarm) requests() int              { return 0 }
func (w *figuresWarm) quiesce() error             { return nil }
func (w *figuresWarm) verify(n int) map[int]error { return nil }
func (w *figuresWarm) digest() string             { return w.coldDigest }
func (w *figuresWarm) close() error               { return w.store.Close() }

// --------------------------------------------------------------- cold_build

// coldBuild submits four runs, one per dataset, against a scale no request
// has named before, so each trains, stores and maps a fresh bank: data →
// fl/nn/tensor training → core plan/train/assemble → v4 write + fsync →
// mapped open do all the work (both model kinds) and the oracle none.
type coldBuild struct {
	served
	seed  uint64
	n     int
	timed [][]runOutcome
}

func (w *coldBuild) boot(dir string, warmOps int) error {
	scales := map[string]exper.Config{}
	for i := 0; i < w.n; i++ {
		scales[coldScaleName(i)] = coldScale(w.seed, i)
	}
	for i := 0; i < warmOps; i++ {
		scales[coldScaleName(warmBase+i)] = coldScale(w.seed, warmBase+i)
	}
	st, err := bootStack(dir, scales)
	if err != nil {
		return err
	}
	w.st, w.timed = st, nil
	for i := 0; i < warmOps; i++ {
		if _, err := w.build(warmBase+i, i, nil); err != nil {
			return fmt.Errorf("warm-up build %d: %w", i, err)
		}
	}
	return nil
}

func (w *coldBuild) op(i int, tr *recorder) error {
	runs, err := w.build(i, i, tr)
	w.timed = append(w.timed, runs)
	return err
}

func (w *coldBuild) build(idx, op int, tr *recorder) ([]runOutcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	before := w.st.mgr.BankBuilds()
	var runs []runOutcome
	for _, d := range exper.DatasetNames {
		req := coldBuildRequest(w.seed, idx, d)
		fin, err := submitAndWait(ctx, w.st, tr, op, req)
		if err != nil {
			return runs, fmt.Errorf("%s: %w", d, err)
		}
		runs = append(runs, outcomeOf(req, fin, ""))
	}
	if got := w.st.mgr.BankBuilds() - before; got != int64(len(exper.DatasetNames)) {
		return runs, fmt.Errorf("scale %s trained %d banks, want %d", coldScaleName(idx), got, len(exper.DatasetNames))
	}
	return runs, nil
}

// verify rebuilds op 0's cifar10 bank with core.LocalBuilder and requires the
// stored bank to be content-hash-equal to it.
func (w *coldBuild) verify(n int) map[int]error {
	suite := exper.NewSuite(coldScale(w.seed, 0))
	const ds = "cifar10"
	_, opts, seed := suite.BankBuildInputs(ds)
	pop := suite.Population(ds)
	want, _, err := core.LocalBuilder{}.BuildBank(context.Background(), pop, opts, seed)
	if err != nil {
		return map[int]error{0: fmt.Errorf("reference build: %w", err)}
	}
	got, err := w.st.store.Get(core.BankKeyForPopulation(pop, opts, seed))
	if err != nil || got == nil {
		return map[int]error{0: fmt.Errorf("op 0's %s bank is not in the store (err %v)", ds, err)}
	}
	if core.BankFingerprint(got) != core.BankFingerprint(want) {
		return map[int]error{0: fmt.Errorf("stored %s bank differs from a core.LocalBuilder build", ds)}
	}
	return nil
}

func (w *coldBuild) digest() string { return digestRuns(w.timed...) }
