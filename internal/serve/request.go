// Package serve turns the reproduction into a long-running tuning service:
// an HTTP/JSON API (POST /v1/runs, GET /v1/runs/{id}, streamed per-trial
// events, bank listings, health and counters) over a run manager that
// executes tuning jobs on a bounded worker pool. All runs of one scale share
// one exper.Suite — and through it one content-addressed core.BankStore — so
// bank construction is deduplicated and demand-driven, and identical run
// submissions collapse onto one run via the content-addressed run key
// (core.RunKey, the same discipline as core.BankKey).
//
// The JSON bodies are pkg/client's types, the one declaration of the v1
// wire format; this package adds only server-side behaviour over them.
// See DESIGN.md §7 for the run lifecycle, key, and backpressure model.
package serve

import (
	"strings"

	"noisyeval/internal/core"
	"noisyeval/internal/exper"
	"noisyeval/internal/hpo"
	"noisyeval/pkg/client"
)

// Default and limit values for submitted runs.
const (
	DefaultTrials = 8
	MaxTrials     = 512
	DefaultScale  = "quick"
)

// normalizeNoise replaces a negative zero in any float field by zero: the
// two describe the same run, but a run key hashes float bits, and JSON's
// omitempty turns -0 into an absent 0 on a round trip.
func normalizeNoise(n *client.Noise) {
	for _, f := range []*float64{&n.SampleFraction, &n.Bias, &n.Epsilon, &n.HeterogeneityP} {
		if *f == 0 {
			*f = 0
		}
	}
}

// validateNoise reports the first out-of-range noise field as a coded
// apiError (shared by run and session validation).
func validateNoise(n client.Noise) error {
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

// normalizeRun lower-cases and canonicalizes the request in place (unknown
// names are left for validateRun to report) and fills defaults. Two requests
// describing the same run normalize to the same value, which is what lets
// the run key deduplicate spelling variants ("HB" vs "hyperband").
func normalizeRun(r *client.RunRequest) {
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
	normalizeNoise(&r.Noise)
}

// validateRun reports the first problem with a normalized request as a
// coded apiError; scales lists the scale names the serving manager accepts.
// A nil error means the request can be keyed and executed.
func validateRun(r client.RunRequest, scales []string) error {
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
	return validateNoise(r.Noise)
}

// tuneRequest converts the (normalized, validated) request to the exper
// entry-point form.
func tuneRequest(r client.RunRequest) (exper.TuneRequest, error) {
	method, err := hpo.MethodByName(r.Method)
	if err != nil {
		return exper.TuneRequest{}, err
	}
	return exper.TuneRequest{
		Dataset: r.Dataset,
		Method:  method,
		Noise:   core.Noise(r.Noise),
		Trials:  r.Trials,
		Seed:    r.Seed,
	}, nil
}
