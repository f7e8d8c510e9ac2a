// Package serve turns the reproduction into a long-running tuning service:
// an HTTP/JSON API (POST /v1/runs, GET /v1/runs/{id}, streamed per-trial
// events, bank listings, health and counters) over a run manager that
// executes tuning jobs on a bounded worker pool. All runs of one scale share
// one exper.Suite — and through it one content-addressed core.BankStore — so
// bank construction is deduplicated and demand-driven, and identical run
// submissions collapse onto one run via the content-addressed run key
// (core.RunKey, the same discipline as core.BankKey).
//
// See DESIGN.md §7 for the run lifecycle, key, and backpressure model.
package serve

import (
	"strings"

	"noisyeval/internal/core"
	"noisyeval/internal/exper"
	"noisyeval/internal/hpo"
)

// Default and limit values for submitted runs.
const (
	DefaultTrials = 8
	MaxTrials     = 512
	DefaultScale  = "quick"
)

// NoiseRequest is the wire form of core.Noise.
type NoiseRequest struct {
	// SampleCount is the raw number of validation clients per evaluation
	// (0 = use SampleFraction; both 0 = full pool).
	SampleCount int `json:"sample_count,omitempty"`
	// SampleFraction is the evaluated client fraction in [0, 1].
	SampleFraction float64 `json:"sample_fraction,omitempty"`
	// Bias is the systems-heterogeneity exponent b (≥ 0).
	Bias float64 `json:"bias,omitempty"`
	// Epsilon is the total DP budget (0 = non-private).
	Epsilon float64 `json:"epsilon,omitempty"`
	// HeterogeneityP selects the bank's iid-repartition fraction p
	// (recorded partitions: 0, 0.5, 1).
	HeterogeneityP float64 `json:"heterogeneity_p,omitempty"`
	// Uniform forces uniform (non-weighted) aggregation.
	Uniform bool `json:"uniform,omitempty"`
}

// Noise converts to the experiment-facing setting.
func (n NoiseRequest) Noise() core.Noise {
	return core.Noise{
		SampleCount:    n.SampleCount,
		SampleFraction: n.SampleFraction,
		Bias:           n.Bias,
		Epsilon:        n.Epsilon,
		HeterogeneityP: n.HeterogeneityP,
		Uniform:        n.Uniform,
	}
}

// normalize replaces a negative zero in any float field by zero: the two
// describe the same run, but a run key hashes float bits, and JSON's
// omitempty turns -0 into an absent 0 on a round trip.
func (n *NoiseRequest) normalize() {
	for _, f := range []*float64{&n.SampleFraction, &n.Bias, &n.Epsilon, &n.HeterogeneityP} {
		if *f == 0 {
			*f = 0
		}
	}
}

// validate reports the first out-of-range noise field as a coded apiError
// (shared by run and session validation).
func (n NoiseRequest) validate() error {
	if n.SampleCount < 0 {
		return codef(CodeInvalidNoise, "noise.sample_count %d must be ≥ 0", n.SampleCount)
	}
	if n.SampleFraction < 0 || n.SampleFraction > 1 {
		return codef(CodeInvalidNoise, "noise.sample_fraction %g outside [0, 1]", n.SampleFraction)
	}
	if n.Bias < 0 {
		return codef(CodeInvalidNoise, "noise.bias %g must be ≥ 0", n.Bias)
	}
	if n.Epsilon < 0 {
		return codef(CodeInvalidNoise, "noise.epsilon %g must be ≥ 0", n.Epsilon)
	}
	// HeterogeneityP is validated downstream against the partitions the
	// suite's banks actually record — one source of truth; the manager
	// surfaces that failure as a 400 too.
	return nil
}

// RunRequest is the body of POST /v1/runs: one tuning job.
type RunRequest struct {
	// Dataset is one of exper.DatasetNames.
	Dataset string `json:"dataset"`
	// Method is a tuning-method name from hpo.Methods() (aliases accepted,
	// canonicalized before keying).
	Method string `json:"method"`
	// Scale selects the suite configuration: "quick" (default) or "full".
	Scale string `json:"scale,omitempty"`
	// Trials is the bootstrap trial count (default DefaultTrials, capped at
	// MaxTrials).
	Trials int `json:"trials,omitempty"`
	// Seed drives oracle subsampling and trial RNG streams (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Noise is the evaluation-noise setting (zero = noiseless reference).
	Noise NoiseRequest `json:"noise,omitempty"`
}

// Normalize lower-cases and canonicalizes the request in place (unknown
// names are left for Validate to report) and fills defaults. Two requests
// describing the same run normalize to the same value, which is what lets
// the run key deduplicate spelling variants ("HB" vs "hyperband").
func (r *RunRequest) Normalize() {
	r.Dataset = strings.ToLower(strings.TrimSpace(r.Dataset))
	r.Method = strings.ToLower(strings.TrimSpace(r.Method))
	if canon, err := hpo.CanonicalMethodName(r.Method); err == nil {
		r.Method = canon
	}
	r.Scale = strings.ToLower(strings.TrimSpace(r.Scale))
	if r.Scale == "" { // after the trim, so a blank scale defaults as an empty one does
		r.Scale = DefaultScale
	}
	if r.Trials == 0 {
		r.Trials = DefaultTrials
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	r.Noise.normalize()
}

// Validate reports the first problem with a normalized request as a coded
// apiError; scales lists the scale names the serving manager accepts. A nil
// error means the request can be keyed and executed.
func (r RunRequest) Validate(scales []string) error {
	if !exper.KnownDataset(r.Dataset) {
		return codef(CodeUnknownDataset, "unknown dataset %q (valid: %s)", r.Dataset, strings.Join(exper.DatasetNames, ", "))
	}
	if _, err := hpo.MethodByName(r.Method); err != nil {
		return codef(CodeUnknownMethod, "unknown method %q (valid: %s)", r.Method, strings.Join(hpo.Methods(), ", "))
	}
	if !scaleKnown(r.Scale, scales) {
		return codef(CodeUnknownScale, "unknown scale %q (valid: %s)", r.Scale, strings.Join(scales, ", "))
	}
	if r.Trials < 1 || r.Trials > MaxTrials {
		return codef(CodeInvalidTrials, "trials %d outside [1, %d]", r.Trials, MaxTrials)
	}
	return r.Noise.validate()
}

// TuneRequest converts the (normalized, validated) request to the exper
// entry-point form.
func (r RunRequest) TuneRequest() (exper.TuneRequest, error) {
	method, err := hpo.MethodByName(r.Method)
	if err != nil {
		return exper.TuneRequest{}, err
	}
	return exper.TuneRequest{
		Dataset: r.Dataset,
		Method:  method,
		Noise:   r.Noise.Noise(),
		Trials:  r.Trials,
		Seed:    r.Seed,
	}, nil
}
