package core

import (
	"sync"

	"noisyeval/internal/obs"
)

// coreInstruments are the package-level metrics observed on core's hot
// paths. They live in one lazily-initialized registry (not per-store or
// per-tuner) because the oracle trial loop is shared by every consumer —
// served runs, figures, CLI tuning — and the interesting question is
// process-wide trial latency. Servers fold this registry into their
// /metrics endpoint with Registry.Attach.
type coreInstruments struct {
	// TrialSeconds tracks wall-clock latency of one tuning-method run over
	// one bootstrap trial (the unit RunTrials parallelizes).
	TrialSeconds *obs.Histogram
	// TrialsTotal counts completed bootstrap trials.
	TrialsTotal *obs.Counter
}

var (
	metricsOnce sync.Once
	metricsReg  *obs.Registry
	instruments coreInstruments
)

func initMetrics() {
	metricsReg = obs.NewRegistry()
	instruments = coreInstruments{
		TrialSeconds: metricsReg.Histogram("oracle_trial_seconds",
			"Wall-clock seconds per bootstrap trial of a tuning run.", nil),
		TrialsTotal: metricsReg.Counter("oracle_trials_total",
			"Bootstrap trials completed."),
	}
}

// Metrics returns the core package's metrics registry. Attach it to a
// server registry to include oracle trial series in /metrics.
func Metrics() *obs.Registry {
	metricsOnce.Do(initMetrics)
	return metricsReg
}

// metricsInstruments returns the hot-path instruments, initializing on
// first use.
func metricsInstruments() coreInstruments {
	metricsOnce.Do(initMetrics)
	return instruments
}
