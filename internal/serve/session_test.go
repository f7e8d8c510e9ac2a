package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/exper"
	"noisyeval/internal/fl"
	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
	"noisyeval/pkg/client"
)

// doJSON issues one request and decodes the response into out (when non-nil
// and the status is 2xx) or into an client.ErrorEnvelope returned alongside.
func (ts *testServer) doJSON(t *testing.T, method, path, body string, out any) (int, client.ErrorEnvelope) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		var env client.ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s %s: status %d with non-envelope body %q", method, path, resp.StatusCode, raw)
		}
		return resp.StatusCode, env
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, raw, err)
		}
	}
	return resp.StatusCode, client.ErrorEnvelope{}
}

// driveSession asks and server-evaluates until the method finishes,
// returning the completed status. maxSteps guards against a method that
// never finishes.
func (ts *testServer) driveSession(t *testing.T, id string, maxSteps int) client.SessionStatus {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		var ask client.AskResponse
		if code, env := ts.doJSON(t, "POST", "/v1/sessions/"+id+"/ask", "", &ask); code != http.StatusOK {
			t.Fatalf("ask %d: status %d (%s: %s)", i, code, env.Error.Code, env.Error.Message)
		}
		if ask.Done {
			var st client.SessionStatus
			if code, env := ts.doJSON(t, "GET", "/v1/sessions/"+id, "", &st); code != http.StatusOK {
				t.Fatalf("get: status %d (%s)", code, env.Error.Code)
			}
			return st
		}
		body := fmt.Sprintf(`{"answers":[{"ask_id":%d}]}`, ask.Asks[0].ID)
		var tell client.TellResponse
		if code, env := ts.doJSON(t, "POST", "/v1/sessions/"+id+"/tell", body, &tell); code != http.StatusOK {
			t.Fatalf("tell %d: status %d (%s: %s)", i, code, env.Error.Code, env.Error.Message)
		}
	}
	t.Fatalf("session %s did not finish in %d steps", id, maxSteps)
	return client.SessionStatus{}
}

// evalRecorder is the reference side of TestSessionParityWithRun: a bank
// oracle that logs every evaluation a directly-run method makes. Embedding
// the interface hides the bank oracle's batch entry point, so every ask
// arrives through Evaluate.
type evalRecorder struct {
	hpo.Oracle
	log []evalRecord
}

type evalRecord struct {
	cfg      fl.HParams
	rounds   int
	evalID   string
	observed float64
}

func (r *evalRecorder) Evaluate(cfg fl.HParams, rounds int, evalID string) float64 {
	v := r.Oracle.Evaluate(cfg, rounds, evalID)
	r.log = append(r.log, evalRecord{cfg, rounds, evalID, v})
	return v
}

// TestSessionParityWithRun pins the inversion contract at the layer that owns
// it, for every registered method under subsampling, systems bias and DP: an
// external client driving a session's ask/tell loop — answering every ask
// with the server's own bank evaluation — sees, ask for ask, the evaluations
// a plain Method.Run makes on the same WithTrial oracle and RNG stream (IDs
// sequential from 0, re-ask idempotent, config_index the bank's own), and
// lands on exactly that run's recommendation, which is also the one the
// server-driven /v1/runs path reports for the same inputs.
func TestSessionParityWithRun(t *testing.T) {
	// Budget enough for Hyperband's brackets to evaluate something.
	cfg := tinyConfig()
	cfg.MaxRounds, cfg.K = 27, 8
	ts := newTestServer(t, Options{Scales: map[string]exper.Config{"quick": cfg}})
	const seed = 5
	noises := []struct {
		name string
		req  client.Noise
	}{
		{"subsample", client.Noise{SampleCount: 2}},
		{"bias", client.Noise{SampleCount: 2, Bias: 1}},
		{"eps", client.Noise{SampleCount: 2, Epsilon: 2}},
	}
	for _, method := range hpo.Methods() {
		t.Run(method, func(t *testing.T) {
			for _, nz := range noises {
				t.Run(nz.name, func(t *testing.T) {
					noiseJSON, _ := json.Marshal(nz.req)
					body := fmt.Sprintf(`{"dataset":"cifar10","method":%q,"trials":1,"seed":%d,"noise":%s}`, method, seed, noiseJSON)
					_, st := ts.submit(t, body)
					ts.streamEvents(t, st.ID)
					_, raw := ts.getRun(t, st.ID, nil)
					var runSt client.RunStatus
					if err := json.Unmarshal(raw, &runSt); err != nil {
						t.Fatal(err)
					}
					if runSt.State != string(StateDone) || runSt.Result == nil || runSt.Result.Best == nil {
						t.Fatalf("run did not finish with a best: %+v", runSt)
					}

					// The reference: the method run directly, exactly as
					// OpenSession documents the wiring.
					suite, err := ts.mgr.suiteFor(DefaultScale)
					if err != nil {
						t.Fatal(err)
					}
					bank := suite.Bank("cifar10")
					noise := core.Noise(nz.req)
					oracle, err := core.NewBankOracle(bank, noise.HeterogeneityP, noise.Scheme(), seed)
					if err != nil {
						t.Fatal(err)
					}
					m, err := hpo.MethodByName(method)
					if err != nil {
						t.Fatal(err)
					}
					ref := &evalRecorder{Oracle: oracle.WithTrial(0)}
					hist := m.Run(ref, hpo.DefaultSpace(), noise.Settings(hpo.Settings{Budget: suite.Cfg.Budget()}),
						rng.New(seed).Split("fedtune").Splitf("trial-%d", 0))
					if len(ref.log) == 0 {
						t.Fatal("the direct run evaluated nothing")
					}

					var sess client.SessionStatus
					sbody := fmt.Sprintf(`{"dataset":"cifar10","method":%q,"seed":%d,"noise":%s}`, method, seed, noiseJSON)
					if code, env := ts.doJSON(t, "POST", "/v1/sessions", sbody, &sess); code != http.StatusCreated {
						t.Fatalf("open: status %d (%s: %s)", code, env.Error.Code, env.Error.Message)
					}
					for i := 0; ; i++ {
						var ask, again client.AskResponse
						if code, env := ts.doJSON(t, "POST", "/v1/sessions/"+sess.ID+"/ask", "", &ask); code != http.StatusOK {
							t.Fatalf("ask %d: status %d (%s: %s)", i, code, env.Error.Code, env.Error.Message)
						}
						if ask.Done {
							if i != len(ref.log) {
								t.Fatalf("session finished after %d asks, the direct run made %d evaluations", i, len(ref.log))
							}
							break
						}
						if i >= len(ref.log) {
							t.Fatalf("ask %d: the direct run made only %d evaluations", i, len(ref.log))
						}
						if i%7 == 0 {
							ts.doJSON(t, "POST", "/v1/sessions/"+sess.ID+"/ask", "", &again)
							if !reflect.DeepEqual(ask, again) {
								t.Fatalf("re-ask %d not idempotent: %+v then %+v", i, ask, again)
							}
						}
						item, want := ask.Asks[0], ref.log[i]
						if len(ask.Asks) != 1 || item.ID != i {
							t.Fatalf("ask %d: %d items, first ID %d", i, len(ask.Asks), item.ID)
						}
						if ci, err := bank.ConfigIndex(fl.HParams(item.Config)); err != nil || item.ConfigIndex != ci {
							t.Fatalf("ask %d: config_index %d, bank says %d (%v)", i, item.ConfigIndex, ci, err)
						}
						if fl.HParams(item.Config) != want.cfg || item.Rounds != want.rounds || item.EvalID != want.evalID {
							t.Fatalf("ask %d = %+v, the direct run evaluated %+v", i, item, want)
						}
						var tell client.TellResponse
						if code, env := ts.doJSON(t, "POST", "/v1/sessions/"+sess.ID+"/tell", fmt.Sprintf(`{"answers":[{"ask_id":%d}]}`, i), &tell); code != http.StatusOK {
							t.Fatalf("tell %d: status %d (%s: %s)", i, code, env.Error.Code, env.Error.Message)
						}
						if last := i == len(ref.log)-1; tell.Done != last {
							t.Fatalf("tell %d of %d reported done=%v", i, len(ref.log), tell.Done)
						}
					}
					var final client.SessionStatus
					if code, env := ts.doJSON(t, "GET", "/v1/sessions/"+sess.ID, "", &final); code != http.StatusOK {
						t.Fatalf("get: status %d (%s)", code, env.Error.Code)
					}
					if final.State != string(SessionDone) || final.Best == nil {
						t.Fatalf("session state = %s (error %q, best %v), want done with a best", final.State, final.Error, final.Best)
					}
					if len(final.Trials) != len(ref.log) {
						t.Fatalf("session logged %d trials, the direct run made %d evaluations", len(final.Trials), len(ref.log))
					}
					for i, tr := range final.Trials {
						want := ref.log[i]
						if fl.HParams(tr.Config) != want.cfg || tr.Rounds != bank.Rounds[bank.CheckpointIndex(want.rounds)] || tr.Observed != want.observed {
							t.Fatalf("trial %d = %+v, the direct run observed %+v", i, tr, want)
						}
					}

					rec, _ := hist.Recommend()
					if b := final.Best; fl.HParams(b.Config) != rec.Config || b.Rounds != rec.Rounds || b.Observed != rec.Observed || b.TrueErr != rec.True {
						t.Errorf("session best = %+v, direct run recommends %+v", *b, rec)
					}
					want := runSt.Result.Best
					if final.Best.Config != want.Config || final.Best.Rounds != want.Rounds || final.Best.TrueErr != want.TrueErr {
						t.Errorf("session best = %+v, run best = %+v", *final.Best, *want)
					}
					if final.BankKey != runSt.Result.BankKey {
						t.Errorf("session bank key %q != run bank key %q", final.BankKey, runSt.Result.BankKey)
					}
				})
			}
		})
	}
}

// failingMethod evaluates once and then panics.
type failingMethod struct{}

func (failingMethod) Name() string { return "failing" }
func (failingMethod) Run(o hpo.Oracle, _ hpo.Space, _ hpo.Settings, _ *rng.RNG) *hpo.History {
	o.Evaluate(o.Pool()[0], o.MaxRounds(), "only")
	panic("boom")
}

// TestSessionMethodPanic pins where a method panic lands: on the handler
// goroutine that resumed the method, which answers 500 naming the method and
// leaves the session failed; later asks and tells are session_terminal.
func TestSessionMethodPanic(t *testing.T) {
	ts := newTestServer(t, Options{})
	var donor client.SessionStatus
	if code, _ := ts.doJSON(t, "POST", "/v1/sessions", `{"dataset":"cifar10","noise":{"sample_count":2}}`, &donor); code != http.StatusCreated {
		t.Fatalf("open: %d", code)
	}
	ext, _ := ts.mgr.Sessions().Get(donor.ID)
	req := ext.Req
	req.Method = "failing"
	stream := hpo.NewEvalStream(failingMethod{}, ext.oracle, hpo.DefaultSpace(), ext.settings, rng.New(1))
	sess := newSession("k", req, exper.TuneTrial{Oracle: ext.oracle, Settings: ext.settings, Stream: stream}, ext.bankKey, time.Now())
	if err := ts.mgr.Sessions().Add(sess); err != nil {
		t.Fatal(err)
	}

	path := "/v1/sessions/" + sess.ID
	var ask client.AskResponse
	if code, _ := ts.doJSON(t, "POST", path+"/ask", "", &ask); code != http.StatusOK || len(ask.Asks) != 1 {
		t.Fatalf("first ask: %d %+v", code, ask)
	}
	code, env := ts.doJSON(t, "POST", path+"/tell", `{"answers":[{"ask_id":0}]}`, nil)
	if code != http.StatusInternalServerError || env.Error.Code != CodeInternal || !strings.Contains(env.Error.Message, "method failing panicked: boom") {
		t.Fatalf("tell that resumes the panic: %d %q %q", code, env.Error.Code, env.Error.Message)
	}
	var st client.SessionStatus
	if code, _ := ts.doJSON(t, "GET", path, "", &st); code != http.StatusOK || st.State != string(SessionFailed) || !strings.Contains(st.Error, "failing") {
		t.Fatalf("after panic: %d state %s error %q", code, st.State, st.Error)
	}
	if len(st.Trials) != 1 || st.Told != 1 {
		t.Errorf("the answered ask was not logged: %d trials, told %d", len(st.Trials), st.Told)
	}
	for _, call := range [][2]string{{"/ask", ""}, {"/tell", `{"answers":[{"ask_id":1}]}`}} {
		if code, env := ts.doJSON(t, "POST", path+call[0], call[1], nil); code != http.StatusConflict || env.Error.Code != CodeSessionTerminal {
			t.Errorf("%s on a failed session: %d %q, want 409 %s", call[0], code, env.Error.Code, CodeSessionTerminal)
		}
	}
}

// TestSessionsLeaveNoGoroutines pins that a session owns nothing that runs
// by itself: a method suspended mid-batch is unwound by each of the three
// ways a session ends — close, idle reaping, shutdown's CloseAll — and the
// process is back at its goroutine baseline afterwards.
func TestSessionsLeaveNoGoroutines(t *testing.T) {
	mgr := NewManager(Options{Scales: map[string]exper.Config{"quick": tinyConfig()}, Store: testStore(t), SessionIdleTTL: time.Minute})
	defer mgr.Shutdown(context.Background())
	now := time.Now()
	mgr.Sessions().now = func() time.Time { return now }

	open := func() *Session {
		t.Helper()
		sess, err := mgr.OpenSession(client.SessionRequest{Dataset: "cifar10", Method: "sha", Noise: client.Noise{SampleCount: 2}})
		if err != nil {
			t.Fatal(err)
		}
		// SHA's first rung is one multi-config batch: answer its first item
		// and leave the method suspended inside the batch.
		if _, err := sess.Ask(); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Tell(client.TellRequest{Answers: []client.TellAnswer{{AskID: 0}}}); err != nil {
			t.Fatal(err)
		}
		if sess.batch == nil || len(sess.batch.Indices) < 2 || sess.pos != 1 {
			t.Fatalf("session is not mid-batch: %+v at %d", sess.batch, sess.pos)
		}
		return sess
	}
	// goroutines reads the count once it has stopped moving: earlier tests'
	// servers and the first open's bank build wind down asynchronously.
	goroutines := func() int {
		n := runtime.NumGoroutine()
		for stable := 0; stable < 5; {
			time.Sleep(2 * time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				stable++
			} else {
				n, stable = m, 0
			}
		}
		return n
	}
	open().Close() // the first open builds the bank
	mgr.Sessions().CloseAll()
	baseline := goroutines()

	closed, reaped, kept := open(), open(), open()
	now = now.Add(30 * time.Second)
	mgr.Sessions().Get(kept.ID) // touch kept at +30s
	if n := goroutines(); n != baseline+3 {
		t.Fatalf("%d goroutines with three suspended methods, baseline %d: the count does not see them", n, baseline)
	}

	if s, ok := mgr.Sessions().Remove(closed.ID); !ok || s != closed {
		t.Fatal("remove")
	}
	closed.Close()
	now = now.Add(45 * time.Second) // reaped idle 75s, kept 45s
	mgr.Sessions().Sweep()
	if got := mgr.Sessions().Reaped(); got != 1 || mgr.Sessions().Len() != 1 {
		t.Fatalf("sweep reaped %d, %d retained; want 1 and 1", got, mgr.Sessions().Len())
	}
	mgr.Sessions().CloseAll()

	for _, s := range []*Session{closed, reaped, kept} {
		if st := s.Status(); st.State != string(SessionClosed) {
			t.Errorf("session %s state %s, want closed", s.ID, st.State)
		}
		if _, err := s.Ask(); err == nil {
			t.Errorf("ask on closed session %s succeeded", s.ID)
		}
	}
	if n := goroutines(); n != baseline {
		t.Errorf("%d goroutines after every session ended, baseline %d", n, baseline)
	}
}

// TestSessionExternalEvaluate pins the external-optimizer path: evaluation by
// pool index and by snapped parameter vector, cohort determinism, incremental
// budget accounting, and budget exhaustion.
func TestSessionExternalEvaluate(t *testing.T) {
	ts := newTestServer(t, Options{})
	var sess client.SessionStatus
	if code, env := ts.doJSON(t, "POST", "/v1/sessions", `{"dataset":"cifar10","seed":3,"noise":{"sample_count":2}}`, &sess); code != http.StatusCreated {
		t.Fatalf("open: status %d (%s)", code, env.Error.Code)
	}
	if !sess.External || sess.PoolSize == 0 || sess.MaxRounds == 0 {
		t.Fatalf("external session geometry: %+v", sess)
	}

	// Same (index, rounds, eval_id) twice → identical observation, but the
	// second evaluation is budget-free (the checkpoint is already paid for).
	eval := func(body string) client.TellResponse {
		t.Helper()
		var resp client.TellResponse
		if code, env := ts.doJSON(t, "POST", "/v1/sessions/"+sess.ID+"/tell", body, &resp); code != http.StatusOK {
			t.Fatalf("tell %s: status %d (%s: %s)", body, code, env.Error.Code, env.Error.Message)
		}
		return resp
	}
	r1 := eval(`{"evaluate":[{"config_index":0,"rounds":9,"eval_id":"c"}]}`)
	r2 := eval(`{"evaluate":[{"config_index":0,"rounds":9,"eval_id":"c"}]}`)
	if r1.Results[0].Observed != r2.Results[0].Observed {
		t.Errorf("same cohort observed %v then %v", r1.Results[0].Observed, r2.Results[0].Observed)
	}
	if r1.SpentRounds != 9 || r2.SpentRounds != 9 {
		t.Errorf("spent = %d then %d, want 9 then 9 (incremental)", r1.SpentRounds, r2.SpentRounds)
	}

	// A parameter vector equal to a pool member snaps to its index.
	cfg, _ := json.Marshal(r1.Results[0].Config)
	rv := eval(fmt.Sprintf(`{"evaluate":[{"config":%s,"rounds":9}]}`, cfg))
	if rv.Results[0].ConfigIndex != 0 {
		t.Errorf("vector snapped to index %d, want 0", rv.Results[0].ConfigIndex)
	}

	// Burn the remaining budget, then expect budget_exhausted.
	budget := sess.BudgetRounds
	for ci := 1; ; ci++ {
		var resp client.TellResponse
		code, env := ts.doJSON(t, "POST", "/v1/sessions/"+sess.ID+"/tell",
			fmt.Sprintf(`{"evaluate":[{"config_index":%d}]}`, ci%sess.PoolSize), &resp)
		if code == http.StatusOK {
			if resp.SpentRounds > budget {
				t.Fatalf("spent %d exceeded budget %d", resp.SpentRounds, budget)
			}
			continue
		}
		if code != http.StatusConflict || env.Error.Code != CodeBudgetExhausted {
			t.Fatalf("exhaustion: status %d code %s, want 409 %s", code, env.Error.Code, CodeBudgetExhausted)
		}
		break
	}
}

// TestSessionTellResultIndex pins that every tell result carries the index
// it was logged at: the trial GET shows at that position is the result, on an
// external session (several items per tell) and on a driven one (an answer
// logged before the tell's evaluations).
func TestSessionTellResultIndex(t *testing.T) {
	ts := newTestServer(t, Options{})
	for _, open := range []string{
		`{"dataset":"cifar10","noise":{"sample_count":2}}`,
		`{"dataset":"cifar10","method":"rs","noise":{"sample_count":2}}`,
	} {
		var sess client.SessionStatus
		if code, env := ts.doJSON(t, "POST", "/v1/sessions", open, &sess); code != http.StatusCreated {
			t.Fatalf("open %s: status %d (%s)", open, code, env.Error.Code)
		}
		bodies := []string{
			`{"evaluate":[{"config_index":0,"rounds":1}]}`,
			`{"evaluate":[{"config_index":1,"rounds":1},{"config_index":2,"rounds":1}]}`,
		}
		if !sess.External {
			var ask client.AskResponse
			if code, env := ts.doJSON(t, "POST", "/v1/sessions/"+sess.ID+"/ask", "", &ask); code != http.StatusOK {
				t.Fatalf("ask: status %d (%s)", code, env.Error.Code)
			}
			bodies = append(bodies, fmt.Sprintf(`{"answers":[{"ask_id":%d}],"evaluate":[{"config_index":3,"rounds":1}]}`, ask.Asks[0].ID))
		}
		var results []client.SessionTrial
		for _, body := range bodies {
			var resp client.TellResponse
			if code, env := ts.doJSON(t, "POST", "/v1/sessions/"+sess.ID+"/tell", body, &resp); code != http.StatusOK {
				t.Fatalf("tell %s: status %d (%s: %s)", body, code, env.Error.Code, env.Error.Message)
			}
			results = append(results, resp.Results...)
		}
		var got client.SessionStatus
		if code, _ := ts.doJSON(t, "GET", "/v1/sessions/"+sess.ID, "", &got); code != http.StatusOK {
			t.Fatalf("get: status %d", code)
		}
		want := len(results) // plus the driven session's answer
		if !sess.External {
			want++
		}
		if len(got.Trials) != want {
			t.Fatalf("%s: %d trials logged, want %d", sess.ID, len(got.Trials), want)
		}
		for _, r := range results {
			if r.Index < 0 || r.Index >= len(got.Trials) || !reflect.DeepEqual(got.Trials[r.Index], r) {
				t.Errorf("%s: tell result %+v is not the trial logged at its index", sess.ID, r)
			}
		}
	}
}

// TestSessionErrorPaths is the table-driven sweep over the session API's
// coded failures.
func TestSessionErrorPaths(t *testing.T) {
	ts := newTestServer(t, Options{})
	var ext client.SessionStatus
	if code, _ := ts.doJSON(t, "POST", "/v1/sessions", `{"dataset":"cifar10","noise":{"sample_count":2}}`, &ext); code != http.StatusCreated {
		t.Fatalf("open external: %d", code)
	}
	var driven client.SessionStatus
	if code, _ := ts.doJSON(t, "POST", "/v1/sessions", `{"dataset":"cifar10","method":"rs","noise":{"sample_count":2}}`, &driven); code != http.StatusCreated {
		t.Fatalf("open driven: %d", code)
	}

	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"unknown dataset", "POST", "/v1/sessions", `{"dataset":"mnist"}`, 400, CodeUnknownDataset},
		{"unknown method", "POST", "/v1/sessions", `{"dataset":"cifar10","method":"sgd"}`, 400, CodeUnknownMethod},
		{"unknown scale", "POST", "/v1/sessions", `{"dataset":"cifar10","scale":"galactic"}`, 400, CodeUnknownScale},
		{"negative trial", "POST", "/v1/sessions", `{"dataset":"cifar10","trial":-1}`, 400, CodeInvalidTrials},
		{"bad noise", "POST", "/v1/sessions", `{"dataset":"cifar10","noise":{"epsilon":-1}}`, 400, CodeInvalidNoise},
		{"malformed JSON", "POST", "/v1/sessions", `{"dataset":`, 400, CodeBadRequest},
		{"missing session", "GET", "/v1/sessions/sess-999999", "", 404, CodeNotFound},
		{"ask on external", "POST", "/v1/sessions/" + ext.ID + "/ask", "", 400, CodeExternalSession},
		{"answers on external", "POST", "/v1/sessions/" + ext.ID + "/tell", `{"answers":[{"ask_id":0}]}`, 400, CodeExternalSession},
		{"empty tell", "POST", "/v1/sessions/" + ext.ID + "/tell", `{}`, 400, CodeBadRequest},
		{"tell before ask", "POST", "/v1/sessions/" + driven.ID + "/tell", `{"answers":[{"ask_id":0}]}`, 400, CodeNoPendingAsk},
		{"index and vector", "POST", "/v1/sessions/" + ext.ID + "/tell", `{"evaluate":[{"config_index":0,"config":{}}]}`, 400, CodeBadRequest},
		{"index out of range", "POST", "/v1/sessions/" + ext.ID + "/tell", `{"evaluate":[{"config_index":9999}]}`, 400, CodeBadRequest},
		{"neither index nor vector", "POST", "/v1/sessions/" + ext.ID + "/tell", `{"evaluate":[{}]}`, 400, CodeBadRequest},
		{"rounds out of range", "POST", "/v1/sessions/" + ext.ID + "/tell", `{"evaluate":[{"config_index":0,"rounds":-3}]}`, 400, CodeBadRequest},
	}
	for _, tc := range cases {
		code, env := ts.doJSON(t, tc.method, tc.path, tc.body, nil)
		if code != tc.status || env.Error.Code != tc.code {
			t.Errorf("%s: got %d %q, want %d %q (%s)", tc.name, code, env.Error.Code, tc.status, tc.code, env.Error.Message)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}

	// ask_mismatch needs a live pending ask.
	var ask client.AskResponse
	if code, _ := ts.doJSON(t, "POST", "/v1/sessions/"+driven.ID+"/ask", "", &ask); code != 200 {
		t.Fatalf("ask: %d", code)
	}
	if code, env := ts.doJSON(t, "POST", "/v1/sessions/"+driven.ID+"/tell",
		fmt.Sprintf(`{"answers":[{"ask_id":%d}]}`, ask.Asks[0].ID+7), nil); code != 400 || env.Error.Code != CodeAskMismatch {
		t.Errorf("ask mismatch: got %d %q", code, env.Error.Code)
	}

	// A tell applies all of its items or none: a body whose later item is
	// refused leaves the session's status as it was, and the pending ask
	// can still be answered.
	status := func(id string) client.SessionStatus {
		var st client.SessionStatus
		if code, _ := ts.doJSON(t, "GET", "/v1/sessions/"+id, "", &st); code != 200 {
			t.Fatalf("status %s: %d", id, code)
		}
		return st
	}
	overBudget := `{"evaluate":[`
	for ci := 0; ci <= ext.BudgetRounds/ext.MaxRounds; ci++ {
		if ci > 0 {
			overBudget += ","
		}
		overBudget += fmt.Sprintf(`{"config_index":%d}`, ci%ext.PoolSize)
	}
	overBudget += `]}`
	if ext.BudgetRounds/ext.MaxRounds+1 > ext.PoolSize {
		t.Fatalf("pool of %d too small to exceed a %d-round budget at %d rounds per config", ext.PoolSize, ext.BudgetRounds, ext.MaxRounds)
	}
	a := ask.Asks[0].ID
	for _, tc := range []struct {
		name, id, body string
		status         int
		code           string
	}{
		{"two answers", driven.ID, fmt.Sprintf(`{"answers":[{"ask_id":%d},{"ask_id":%d}]}`, a, a+1), 400, CodeNoPendingAsk},
		{"answer then bad evaluate", driven.ID, fmt.Sprintf(`{"answers":[{"ask_id":%d}],"evaluate":[{"config_index":-1}]}`, a), 400, CodeBadRequest},
		{"good then bad index", ext.ID, `{"evaluate":[{"config_index":0},{"config_index":9999}]}`, 400, CodeBadRequest},
		{"good then bad rounds", ext.ID, `{"evaluate":[{"config_index":0},{"config_index":1,"rounds":-3}]}`, 400, CodeBadRequest},
		{"cumulative budget", ext.ID, overBudget, 409, CodeBudgetExhausted},
	} {
		before := status(tc.id)
		if code, env := ts.doJSON(t, "POST", "/v1/sessions/"+tc.id+"/tell", tc.body, nil); code != tc.status || env.Error.Code != tc.code {
			t.Errorf("%s: got %d %q, want %d %q (%s)", tc.name, code, env.Error.Code, tc.status, tc.code, env.Error.Message)
		}
		if after := status(tc.id); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: a refused tell changed the session:\nbefore %+v\nafter  %+v", tc.name, before, after)
		}
	}
	var told client.TellResponse
	if code, env := ts.doJSON(t, "POST", "/v1/sessions/"+driven.ID+"/tell", fmt.Sprintf(`{"answers":[{"ask_id":%d}]}`, a), &told); code != 200 {
		t.Fatalf("answer after refused tells: %d %q", code, env.Error.Code)
	}
	if st := status(driven.ID); st.Told != 1 || len(st.Trials) != 1 {
		t.Errorf("after one answer: told=%d trials=%d, want 1 and 1", st.Told, len(st.Trials))
	}

	// Terminal sessions reject ask and tell with 409 session_terminal.
	if code, _ := ts.doJSON(t, "DELETE", "/v1/sessions/"+ext.ID, "", nil); code != 200 {
		t.Fatalf("close: %d", code)
	}
	if code, env := ts.doJSON(t, "GET", "/v1/sessions/"+ext.ID, "", nil); code != 404 || env.Error.Code != CodeNotFound {
		t.Errorf("closed session GET: %d %q", code, env.Error.Code)
	}
}

// TestSessionCloseAndCapacity covers DELETE semantics and the MaxSessions
// bound with its too_many_sessions rejection.
func TestSessionCloseAndCapacity(t *testing.T) {
	ts := newTestServer(t, Options{MaxSessions: 2})
	open := func() (client.SessionStatus, int, client.ErrorEnvelope) {
		var s client.SessionStatus
		code, env := ts.doJSON(t, "POST", "/v1/sessions", `{"dataset":"cifar10","method":"rs","noise":{"sample_count":2}}`, &s)
		return s, code, env
	}
	a, code, _ := open()
	if code != http.StatusCreated {
		t.Fatalf("open a: %d", code)
	}
	if _, code, _ = open(); code != http.StatusCreated {
		t.Fatalf("open b: %d", code)
	}
	if _, code, env := open(); code != http.StatusServiceUnavailable || env.Error.Code != CodeTooManySessions {
		t.Fatalf("open c: got %d %q, want 503 %s", code, env.Error.Code, CodeTooManySessions)
	}
	var closed client.SessionStatus
	if code, _ := ts.doJSON(t, "DELETE", "/v1/sessions/"+a.ID, "", &closed); code != 200 {
		t.Fatalf("close a: %d", code)
	}
	if closed.State != string(SessionClosed) {
		t.Errorf("closed state = %s", closed.State)
	}
	if _, code, _ = open(); code != http.StatusCreated {
		t.Fatalf("open after close: %d", code)
	}
}

// TestSessionIdleReaping drives the reaper on an injected clock: a session
// idle past the TTL is swept — its method unwound mid-run, with an ask
// pending — while a recently touched one survives, and an expired session a
// lookup finds before the janitor does is reaped and counted the same way.
func TestSessionIdleReaping(t *testing.T) {
	ts := newTestServer(t, Options{SessionIdleTTL: time.Minute})
	now := time.Now()
	ts.mgr.Sessions().now = func() time.Time { return now }

	var idle, busy client.SessionStatus
	if code, _ := ts.doJSON(t, "POST", "/v1/sessions", `{"dataset":"cifar10","method":"rs","noise":{"sample_count":2}}`, &idle); code != 201 {
		t.Fatalf("open idle: %d", code)
	}
	// Leave idle's method suspended on a pending ask.
	var ask client.AskResponse
	if code, _ := ts.doJSON(t, "POST", "/v1/sessions/"+idle.ID+"/ask", "", &ask); code != 200 {
		t.Fatalf("ask: %d", code)
	}
	if code, _ := ts.doJSON(t, "POST", "/v1/sessions", `{"dataset":"cifar10","method":"sha","noise":{"sample_count":2}}`, &busy); code != 201 {
		t.Fatalf("open busy: %d", code)
	}

	now = now.Add(45 * time.Second)
	ts.mgr.Sessions().Get(busy.ID) // touch busy at +45s
	now = now.Add(30 * time.Second)
	ts.mgr.Sessions().Sweep() // idle last touched 75s ago, busy 30s ago

	if got := ts.mgr.Sessions().Len(); got != 1 {
		t.Fatalf("after sweep: %d sessions retained, want 1", got)
	}
	if got := ts.mgr.Sessions().Reaped(); got != 1 {
		t.Errorf("reaped = %d, want 1", got)
	}
	if code, env := ts.doJSON(t, "GET", "/v1/sessions/"+idle.ID, "", nil); code != 404 || env.Error.Code != CodeNotFound {
		t.Errorf("reaped session GET: %d %q", code, env.Error.Code)
	}
	if code, _ := ts.doJSON(t, "GET", "/v1/sessions/"+busy.ID, "", nil); code != 200 {
		t.Errorf("surviving session GET: %d", code)
	}

	// Expiry is also enforced on lookup, without a sweep.
	now = now.Add(2 * time.Minute)
	if code, _ := ts.doJSON(t, "GET", "/v1/sessions/"+busy.ID, "", nil); code != 404 {
		t.Errorf("expired-on-read session GET: %d", code)
	}
	if got, left := ts.mgr.Sessions().Reaped(), ts.mgr.Sessions().Len(); got != 2 || left != 0 {
		t.Errorf("after expiry on lookup: reaped = %d with %d retained, want 2 and 0", got, left)
	}
}

// TestSessionList covers GET /v1/sessions rows.
func TestSessionList(t *testing.T) {
	ts := newTestServer(t, Options{})
	var a client.SessionStatus
	if code, _ := ts.doJSON(t, "POST", "/v1/sessions", `{"dataset":"cifar10","method":"fedpop","noise":{"sample_count":2}}`, &a); code != 201 {
		t.Fatalf("open: %d", code)
	}
	var list struct {
		Sessions []sessionListItem `json:"sessions"`
	}
	if code, _ := ts.doJSON(t, "GET", "/v1/sessions", "", &list); code != 200 {
		t.Fatalf("list: %d", code)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].ID != a.ID || list.Sessions[0].Method != "fedpop" {
		t.Errorf("list = %+v", list.Sessions)
	}
}

// TestMethodsEndpoint pins the catalogue: every registered method appears
// with a display name, and fedpop — this PR's addition — is reachable.
func TestMethodsEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{})
	var resp struct {
		Methods []struct {
			Name        string            `json:"name"`
			Display     string            `json:"display"`
			Aliases     []string          `json:"aliases,omitempty"`
			Description string            `json:"description"`
			Settings    map[string]string `json:"settings,omitempty"`
		} `json:"methods"`
	}
	if code, _ := ts.doJSON(t, "GET", "/v1/methods", "", &resp); code != 200 {
		t.Fatalf("methods: %d", code)
	}
	byName := map[string]bool{}
	for _, m := range resp.Methods {
		byName[m.Name] = true
		if m.Display == "" || m.Description == "" {
			t.Errorf("method %q missing display/description", m.Name)
		}
	}
	for _, want := range []string{"rs", "sha", "hb", "tpe", "fedpop"} {
		if !byName[want] {
			t.Errorf("catalogue missing %q", want)
		}
	}
}

// TestListPagination covers ?limit/?cursor/?state on GET /v1/runs.
func TestListPagination(t *testing.T) {
	ts := newTestServer(t, Options{})
	var ids []string
	for seed := 1; seed <= 5; seed++ {
		_, st := ts.submit(t, fmt.Sprintf(`{"dataset":"cifar10","method":"rs","trials":1,"seed":%d,"noise":{"sample_count":2}}`, seed))
		ts.streamEvents(t, st.ID)
		ids = append(ids, st.ID)
	}

	var got []string
	cursor := ""
	for page := 0; ; page++ {
		path := "/v1/runs?limit=2"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		var lr client.RunPage
		if code, _ := ts.doJSON(t, "GET", path, "", &lr); code != 200 {
			t.Fatalf("page %d: %d", page, code)
		}
		if len(lr.Runs) > 2 {
			t.Fatalf("page %d: %d rows exceeds limit", page, len(lr.Runs))
		}
		for _, r := range lr.Runs {
			got = append(got, r.ID)
		}
		if lr.NextCursor == "" {
			break
		}
		cursor = lr.NextCursor
		if page > 5 {
			t.Fatal("cursor never terminated")
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(ids) {
		t.Errorf("paged walk = %v, want %v", got, ids)
	}

	var all client.RunPage
	if code, _ := ts.doJSON(t, "GET", "/v1/runs?state=done", "", &all); code != 200 {
		t.Fatal("state filter failed")
	}
	if len(all.Runs) != 5 {
		t.Errorf("state=done rows = %d, want 5", len(all.Runs))
	}
	var none client.RunPage
	if code, _ := ts.doJSON(t, "GET", "/v1/runs?state=failed", "", &none); code != 200 || len(none.Runs) != 0 {
		t.Errorf("state=failed rows = %d, want 0", len(none.Runs))
	}

	if code, env := ts.doJSON(t, "GET", "/v1/runs?state=bogus", "", nil); code != 400 || env.Error.Code != CodeInvalidState {
		t.Errorf("bad state: %d %q", code, env.Error.Code)
	}
	if code, env := ts.doJSON(t, "GET", "/v1/runs?cursor=%21%21", "", nil); code != 400 || env.Error.Code != CodeInvalidCursor {
		t.Errorf("bad cursor: %d %q", code, env.Error.Code)
	}
	if code, env := ts.doJSON(t, "GET", "/v1/runs?limit=0", "", nil); code != 400 || env.Error.Code != CodeBadRequest {
		t.Errorf("bad limit: %d %q", code, env.Error.Code)
	}
}
