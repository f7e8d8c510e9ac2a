// This file holds the one-off tuning run entry point: the reusable,
// non-figure path behind cmd/fedtune and the noisyevald serving layer. A
// TuneRequest names a dataset, a method, a noise setting, and a trial count;
// RunTune executes the paper's bootstrap protocol against the suite's
// (cached) bank and returns a summarized TuneResult tagged with
// content-addressed bank and run keys.

package exper

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"noisyeval/internal/core"
	"noisyeval/internal/hpo"
	"noisyeval/internal/obs"
	"noisyeval/internal/rng"
	"noisyeval/internal/stats"
)

// TuneRequest describes one tuning run.
type TuneRequest struct {
	// Dataset is one of DatasetNames.
	Dataset string
	// Method is the tuning algorithm (see hpo.MethodByName).
	Method hpo.Method
	// Noise is the evaluation-noise setting; its HeterogeneityP must be a
	// partition the suite's banks record (0, 0.5, or 1).
	Noise core.Noise
	// Trials is the number of bootstrap trials (≥ 1).
	Trials int
	// Seed drives the oracle's evaluation subsampling and the trial RNG
	// streams. It does not affect bank content (the suite's Config.Seed
	// does), so runs with different seeds share one bank.
	Seed uint64
}

// TrialUpdate is one per-trial progress notification from RunTune.
type TrialUpdate struct {
	Trial     int     // which bootstrap trial finished (0-based)
	Completed int     // trials completed so far (1..Total)
	Total     int     // total trials in the run
	FinalTrue float64 // the trial's final true full-validation error
}

// TuneResult is the outcome of one tuning run.
type TuneResult struct {
	Dataset string
	Method  string // method display name (RS, TPE, ...)
	Noise   core.Noise
	Trials  int
	// BudgetRounds is the per-trial training-round budget.
	BudgetRounds int
	// BankKey is the content address of the bank the run consumed
	// (core.BankKey over the suite's build inputs).
	BankKey string
	// RunKey is the content address of the run itself (core.RunKey); equal
	// keys mean identical results.
	RunKey string
	// Finals holds the per-trial final true errors; Summary summarizes them.
	Finals  []float64
	Summary stats.Summary
	// Best is trial 0's recommendation (nil when the budget admitted no
	// observation).
	Best *hpo.Observation
}

// RunKeyFor returns the content-addressed run key RunTune would assign the
// request, without executing anything (and without forcing a bank build).
// noisyevald deduplicates submissions on this key before queueing them.
func (s *Suite) RunKeyFor(req TuneRequest) (string, error) {
	_, runKey, err := s.tuneKeys(req)
	return runKey, err
}

// tuneKeys validates the request and computes both content addresses: the
// bank the run will consume and the run itself. RunKeyFor and RunTune share
// it, so the two keys are computed (and hashed) exactly once per call and
// can never drift apart.
func (s *Suite) tuneKeys(req TuneRequest) (bankKey, runKey string, err error) {
	if err := s.validateTune(req); err != nil {
		return "", "", err
	}
	bankKey = s.bankKeyFor(req.Dataset)
	settings := req.Noise.Settings(hpo.Settings{Budget: s.Cfg.Budget()})
	return bankKey, core.RunKey(bankKey, methodKey(req.Method), req.Noise, settings, req.Trials, req.Seed), nil
}

// bankKeyFor returns the content address of the bank Bank(name) will hand a
// run: normally core.BankKey over the build inputs, but for a bank installed
// via SetBank — an external artifact whose build inputs are unknown — the
// fingerprint of the installed content. Without the distinction, two runs
// against different -bank files of one dataset would share a run key while
// producing different results.
//
// Either hash is a pass over the whole pool (or the whole bank), so the key
// is computed once per dataset, outside s.mu, and reused until GrowBank or
// SetBank replaces its inputs (the generation check drops a key they overtook).
func (s *Suite) bankKeyFor(name string) string {
	s.mu.Lock()
	key, ok := s.bankKeys[name]
	gen := s.keyGen
	s.mu.Unlock()
	if ok {
		return key
	}
	if b, ok := s.installedBank(name); ok {
		key = "installed-" + core.BankFingerprint(b)
	} else {
		key = core.BankKey(s.BankBuildInputs(name))
	}
	s.mu.Lock()
	if s.keyGen == gen {
		s.bankKeys[name] = key
	}
	s.mu.Unlock()
	return key
}

// invalidateBankKeyLocked forgets name's memoised key; callers hold s.mu and
// have just replaced the bank or pool the key was derived from.
func (s *Suite) invalidateBankKeyLocked(name string) {
	delete(s.bankKeys, name)
	s.keyGen++
}

// BankKeyFor exposes the bank content address a run against name records —
// the serve layer's session API reports it so external drivers can correlate
// a session with /v1/runs results and /v1/banks entries for the same bank.
func (s *Suite) BankKeyFor(name string) string { return s.bankKeyFor(name) }

// methodKey renders a method for run-key hashing: the display name plus the
// value's full configuration, so parameterized variants (e.g. ResampledRS
// with different Reps) hash distinctly.
func methodKey(m hpo.Method) string {
	return fmt.Sprintf("%s %#v", m.Name(), m)
}

// validateTune rejects requests RunTune cannot execute, before any expensive
// work (in particular before a bank build).
func (s *Suite) validateTune(req TuneRequest) error {
	if req.Method == nil {
		return fmt.Errorf("exper: tune request needs a method")
	}
	if !KnownDataset(req.Dataset) {
		return fmt.Errorf("exper: unknown dataset %q (valid: %s)",
			req.Dataset, strings.Join(DatasetNames, ", "))
	}
	if req.Trials < 1 {
		return fmt.Errorf("exper: trials %d must be ≥ 1", req.Trials)
	}
	if p := req.Noise.HeterogeneityP; p != 0 {
		var recorded []float64
		if b, ok := s.installedBank(req.Dataset); ok {
			recorded = b.Partitions // always includes 0 at index 0
		} else {
			_, opts, _ := s.BankBuildInputs(req.Dataset)
			recorded = append([]float64{0}, opts.Partitions...)
		}
		if !slices.Contains(recorded, p) {
			return fmt.Errorf("exper: heterogeneity p=%g not recorded by the bank (valid: %v)",
				p, recorded)
		}
	}
	return nil
}

// tuneCell is the cell of the tuning run req describes on bank: the
// request's method and noise under the request's seed. The trial stream
// label predates RunTune (cmd/fedtune used "fedtune" directly); keeping it
// preserves byte-identical results.
func (s *Suite) tuneCell(bank *core.Bank, req TuneRequest) cell {
	c := s.cell(bank, req.Method, req.Noise, req.Trials, "fedtune")
	c.seed = req.Seed
	return c
}

// TuneTrial is one bootstrap trial of a tuning run, opened for a caller that
// drives the method step by step (noisyevald's ask/tell sessions).
type TuneTrial struct {
	// Oracle is the run's bank oracle on the trial's evaluation cohorts.
	Oracle *core.BankOracle
	// Settings are the run's tuning settings (budget, DP epsilon).
	Settings hpo.Settings
	// Stream drives the request's method on Oracle; nil when the request
	// names no method.
	Stream *hpo.EvalStream
	// MethodKey renders the method as the run key hashes it ("" when the
	// request names no method).
	MethodKey string
}

// OpenTrial wires bootstrap trial t of the tuning run req describes
// (req.Trials is not read), building the dataset's bank on first use as
// RunTune does: the oracle cohorts, settings and method stream are the ones
// RunTune hands that trial, so driving Stream to its end evaluates exactly
// what the run's trial t evaluates and recommends what it recommends. An
// oracle the noise setting cannot build is an error.
func (s *Suite) OpenTrial(req TuneRequest, t int) (TuneTrial, error) {
	c := s.tuneCell(s.Bank(req.Dataset), req)
	oracle, err := c.oracle()
	if err != nil {
		return TuneTrial{}, err
	}
	tt := TuneTrial{Oracle: oracle.WithTrial(t), Settings: c.settings()}
	if req.Method != nil {
		g := rng.New(c.seed).Split(c.stream).Splitf("trial-%d", t)
		tt.Stream = hpo.NewEvalStream(req.Method, tt.Oracle, c.space, tt.Settings, g)
		tt.MethodKey = methodKey(req.Method)
	}
	return tt, nil
}

// RunTune executes one tuning run against the suite's bank for the dataset,
// building (or loading from the attached store) the bank on first use.
// onTrial, when non-nil, receives one serialized TrialUpdate per finished
// bootstrap trial. The result is deterministic in (suite config, request):
// repeated identical requests produce identical results, which is what makes
// RunKey a sound dedup address.
func (s *Suite) RunTune(req TuneRequest, onTrial func(TrialUpdate)) (result *TuneResult, err error) {
	return s.RunTuneCtx(context.Background(), req, onTrial)
}

// RunTuneCtx is RunTune with a caller context. When ctx carries an
// obs.Trace (serve.Manager admission attaches one), the run's timeline
// gains bank.lookup / bank.build spans from the builder tiers and an
// oracle.trials span around the bootstrap trial loop. Tracing never
// perturbs results — spans only observe wall clock.
func (s *Suite) RunTuneCtx(ctx context.Context, req TuneRequest, onTrial func(TrialUpdate)) (result *TuneResult, err error) {
	bankKey, runKey, err := s.tuneKeys(req)
	if err != nil {
		return nil, err
	}
	// Bank construction panics on internal failure (exper drivers are
	// panic-based); a serving layer needs an error instead.
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, fmt.Errorf("exper: tuning run: %v", r)
		}
	}()

	bank := s.BankCtx(ctx, req.Dataset)
	// The address and the bank are two reads; a GrowBank or SetBank landing
	// between them would pair the old address with the new bank. Keys only
	// ever advance, so an unchanged key brackets an unchanged bank.
	for s.bankKeyFor(req.Dataset) != bankKey {
		if bankKey, runKey, err = s.tuneKeys(req); err != nil {
			return nil, err
		}
		bank = s.BankCtx(ctx, req.Dataset)
	}

	c := s.tuneCell(bank, req)
	if onTrial != nil {
		c.progress = func(res core.TrialResult, completed int) {
			onTrial(TrialUpdate{
				Trial:     res.Trial,
				Completed: completed,
				Total:     req.Trials,
				FinalTrue: res.FinalTrue,
			})
		}
	}
	sp := obs.TraceFrom(ctx).StartSpan("oracle.trials",
		"dataset", req.Dataset, "method", req.Method.Name(), "trials", strconv.Itoa(req.Trials))
	results, err := c.run()
	sp.End()
	if err != nil {
		return nil, err
	}

	finals := core.FinalErrors(results)
	out := &TuneResult{
		Dataset:      req.Dataset,
		Method:       req.Method.Name(),
		Noise:        req.Noise,
		Trials:       req.Trials,
		BudgetRounds: c.settings().Budget.TotalRounds,
		BankKey:      bankKey,
		RunKey:       runKey,
		Finals:       finals,
		Summary:      stats.Summarize(finals),
	}
	if rec, ok := results[0].History.Recommend(); ok {
		out.Best = &rec
	}
	return out, nil
}
