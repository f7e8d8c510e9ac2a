package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"noisyeval/internal/exper"
	"noisyeval/pkg/client"
)

// TestNormalizeScale pins the scale rule of both request forms: trim and
// lower-case, then default a scale left empty — so a blank scale gets the
// default like an absent one, and a second normalization changes nothing. Run
// keys of valid requests stay what they were.
func TestNormalizeScale(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", DefaultScale},
		{"  ", DefaultScale},
		{"\t\n", DefaultScale},
		{"quick", "quick"},
		{" Quick ", "quick"},
		{"FULL", "full"},
		{" nope ", "nope"}, // left for validation to report
	} {
		run := client.RunRequest{Dataset: "cifar10", Method: "rs", Scale: c.in}
		normalizeRun(&run)
		again := run
		normalizeRun(&again)
		if run.Scale != c.want || again != run {
			t.Errorf("RunRequest scale %q: normalized to %q, then %q; want %q", c.in, run.Scale, again.Scale, c.want)
		}
		sess := client.SessionRequest{Dataset: "cifar10", Scale: c.in}
		normalizeSession(&sess)
		sessAgain := sess
		normalizeSession(&sessAgain)
		if sess.Scale != c.want || sessAgain != sess {
			t.Errorf("SessionRequest scale %q: normalized to %q, then %q; want %q", c.in, sess.Scale, sessAgain.Scale, c.want)
		}
	}

	// A blank scale is now the default scale: it keys like an absent one,
	// and a valid request keys as it did.
	suite := exper.NewSuite(tinyConfig())
	key := func(scale string, bias float64) string {
		t.Helper()
		r := client.RunRequest{Dataset: "cifar10", Method: "hb", Scale: scale, Trials: 3, Seed: 2, Noise: client.Noise{Bias: bias}}
		normalizeRun(&r)
		if err := validateRun(r, []string{DefaultScale}); err != nil {
			t.Fatalf("scale %q: %v", scale, err)
		}
		treq, err := tuneRequest(r)
		if err != nil {
			t.Fatal(err)
		}
		k, err := suite.RunKeyFor(treq)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if a, b, c := key("", 0), key("  ", 0), key(" QUICK", 0); a != b || a != c {
		t.Errorf("run keys differ across spellings of the default scale: %s, %s, %s", a, b, c)
	}
	// So does a noise field spelled -0, which omitempty drops on re-encoding.
	if a, b := key("", 0), key("", math.Copysign(0, -1)); a != b {
		t.Errorf("bias -0 keys %s, bias 0 keys %s", b, a)
	}
}

// decodeRunRequest decodes a POST /v1/runs body the way the handler does:
// unknown fields are an error.
func decodeRunRequest(data []byte) (client.RunRequest, error) {
	var r client.RunRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&r)
	return r, err
}

// FuzzRunRequest feeds arbitrary bytes through the run-submission front
// half: decode with unknown fields refused, normalizeRun, validateRun. None
// of it may panic; normalizeRun must be idempotent; and an accepted request must key
// the same run after a re-encode and a second pass through all three.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		`{"dataset":"cifar10","method":"rs"}`,
		`{"dataset":" CIFAR10 ","method":"Hyperband","scale":"  ","trials":3,"seed":9}`,
		`{"dataset":"femnist","method":"bohb","scale":"QUICK","noise":{"sample_count":3,"bias":1.5,"epsilon":10}}`,
		`{"dataset":"reddit","method":"tpe","noise":{"sample_fraction":0.5,"heterogeneity_p":1,"uniform":true}}`,
		`{"dataset":"cifar10","method":"rs","trials":-1}`,
		`{"dataset":"cifar10","method":"rs","bogus":1}`,
		`{"dataset":"cifar10","method":"rs","noise":{"bias":-0}}`,
		`[]`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	suite := exper.NewSuite(tinyConfig())
	scales := []string{DefaultScale}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRunRequest(data)
		if err != nil {
			return
		}
		normalizeRun(&r)
		again := r
		normalizeRun(&again)
		if again != r {
			t.Fatalf("Normalize is not idempotent: %+v, then %+v", r, again)
		}
		if validateRun(r, scales) != nil {
			return
		}
		treq, err := tuneRequest(r)
		if err != nil {
			t.Fatalf("validated request %+v has no tune request: %v", r, err)
		}
		key, err := suite.RunKeyFor(treq)
		if err != nil {
			return // a partition the suite's banks do not record
		}
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", r, err)
		}
		back, err := decodeRunRequest(enc)
		if err != nil {
			t.Fatalf("decode of re-encoded %s: %v", enc, err)
		}
		normalizeRun(&back)
		if err := validateRun(back, scales); err != nil {
			t.Fatalf("re-encoded %s no longer validates: %v", enc, err)
		}
		treq2, err := tuneRequest(back)
		if err != nil {
			t.Fatal(err)
		}
		if key2, err := suite.RunKeyFor(treq2); err != nil || key2 != key {
			t.Fatalf("run key %s became %s (%v) after re-encoding %s", key, key2, err, enc)
		}
	})
}

// decodeSessionRequest decodes a POST /v1/sessions body the way the handler
// does: unknown fields are an error.
func decodeSessionRequest(data []byte) (client.SessionRequest, error) {
	var r client.SessionRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&r)
	return r, err
}

// FuzzSessionRequest feeds arbitrary bytes through the session-open front
// half: decode with unknown fields refused, normalizeSession,
// validateSession. None of it may panic; normalizeSession must be
// idempotent; and an accepted request must
// normalize to itself again after a re-encode and still validate.
func FuzzSessionRequest(f *testing.F) {
	for _, seed := range []string{
		`{"dataset":"cifar10"}`,
		`{"dataset":"cifar10","method":"rs","noise":{"sample_count":2}}`,
		`{"dataset":" CIFAR10 ","method":" External ","scale":"  ","trial":3,"seed":9}`,
		`{"dataset":"femnist","method":"Hyperband","scale":"QUICK","noise":{"sample_count":3,"bias":1.5,"epsilon":10}}`,
		`{"dataset":"reddit","method":"tpe","noise":{"sample_fraction":0.5,"heterogeneity_p":1,"uniform":true}}`,
		`{"dataset":"cifar10","trial":-1}`,
		`{"dataset":"cifar10","trial":1000000}`,
		`{"dataset":"cifar10","bogus":1}`,
		`{"dataset":"cifar10","noise":{"bias":-0}}`,
		`[]`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	scales := []string{DefaultScale}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeSessionRequest(data)
		if err != nil {
			return
		}
		normalizeSession(&r)
		again := r
		normalizeSession(&again)
		if again != r {
			t.Fatalf("Normalize is not idempotent: %+v, then %+v", r, again)
		}
		if validateSession(r, scales) != nil {
			return
		}
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", r, err)
		}
		back, err := decodeSessionRequest(enc)
		if err != nil {
			t.Fatalf("decode of re-encoded %s: %v", enc, err)
		}
		normalizeSession(&back)
		if back != r {
			t.Fatalf("re-encoded %s normalizes to %+v, want %+v", enc, back, r)
		}
		if err := validateSession(back, scales); err != nil {
			t.Fatalf("re-encoded %s no longer validates: %v", enc, err)
		}
	})
}
