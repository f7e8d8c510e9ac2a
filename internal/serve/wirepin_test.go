package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"regexp"
	"testing"

	"noisyeval/pkg/client"
)

// pinHParams sets every field of a configuration to a distinct value.
var pinHParams = client.HParams{
	ServerLR: 0.001, Beta1: 0.9, Beta2: 0.99, LRDecay: 0.9999,
	ClientLR: 0.01, ClientMomentum: 0.5, WeightDecay: 5e-5, BatchSize: 32, Epochs: 1,
}

const pinHParamsJSON = `{"ServerLR":0.001,"Beta1":0.9,"Beta2":0.99,"LRDecay":0.9999,"ClientLR":0.01,"ClientMomentum":0.5,"WeightDecay":0.00005,"BatchSize":32,"Epochs":1}`

// TestWireBytesPinned pins the v1 wire format byte for byte: one value of
// every run, event, session, ask/tell and error-envelope body through
// encodeBody — every field set, and every omitempty field both set and
// unset — and then the bodies a tiny-config daemon answers over HTTP, with
// RFC 3339 timestamps masked. A change to a field name, a tag, an omitempty
// or the field order of any body turns it red.
func TestWireBytesPinned(t *testing.T) {
	askID, ci, observed := 3, 4, 0.25
	hp := pinHParams
	full := client.SessionTrial{Index: 1, Source: "ask", AskID: &askID, ConfigIndex: 2, Config: pinHParams,
		Rounds: 9, Observed: 0.5, TrueErr: 0.375, EvalID: "e-1"}
	bare := client.SessionTrial{Source: "tell", Config: pinHParams, EvalID: "tell-0"}
	fullNoise := client.Noise{SampleCount: 2, SampleFraction: 0.5, Bias: 1.5, Epsilon: 2, HeterogeneityP: 0.5, Uniform: true}
	fullRun := client.RunRequest{Dataset: "cifar10", Method: "rs", Scale: "quick", Trials: 3, Seed: 11, Noise: fullNoise}
	bareRun := client.RunRequest{Dataset: "cifar10", Method: "rs"}
	fullSess := client.SessionRequest{Dataset: "cifar10", Method: "tpe", Scale: "quick", Seed: 5, Trial: 2, Noise: fullNoise}
	bareSess := client.SessionRequest{Dataset: "cifar10"}

	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"run request full", fullRun,
			`{"dataset":"cifar10","method":"rs","scale":"quick","trials":3,"seed":11,"noise":{"sample_count":2,"sample_fraction":0.5,"bias":1.5,"epsilon":2,"heterogeneity_p":0.5,"uniform":true}}`},
		{"run request bare", bareRun,
			`{"dataset":"cifar10","method":"rs","noise":{}}`},
		{"run status full", client.RunStatus{
			ID: "run-000001", Key: "k1", State: "done", Request: fullRun,
			CreatedAt: "c", StartedAt: "s", FinishedAt: "f", TrialsDone: 3, TrialsTotal: 3,
			Result: &client.RunResult{MedianErr: 0.5, Q1Err: 0.25, Q3Err: 0.75, MeanErr: 0.5, Finals: []float64{0.25, 0.5, 0.75},
				BudgetRounds: 36, BankKey: "b1", Best: &client.BestConfig{Config: pinHParams, TrueErr: 0.25, Rounds: 9}},
			Error: "boom"},
			`{"id":"run-000001","key":"k1","state":"done","request":{"dataset":"cifar10","method":"rs","scale":"quick","trials":3,"seed":11,"noise":{"sample_count":2,"sample_fraction":0.5,"bias":1.5,"epsilon":2,"heterogeneity_p":0.5,"uniform":true}},"created_at":"c","started_at":"s","finished_at":"f","trials_done":3,"trials_total":3,"result":{"median_err":0.5,"q1_err":0.25,"q3_err":0.75,"mean_err":0.5,"finals":[0.25,0.5,0.75],"budget_rounds":36,"bank_key":"b1","best":{"config":` + pinHParamsJSON + `,"true_err":0.25,"rounds":9}},"error":"boom"}`},
		{"run status bare", client.RunStatus{ID: "run-000002", Key: "k2", State: "queued", Request: bareRun, CreatedAt: "c"},
			`{"id":"run-000002","key":"k2","state":"queued","request":{"dataset":"cifar10","method":"rs","noise":{}},"created_at":"c","trials_done":0,"trials_total":0}`},
		{"run status result without best", client.RunStatus{ID: "run-000003", State: "done", Request: bareRun,
			Result: &client.RunResult{Finals: []float64{}}},
			`{"id":"run-000003","key":"","state":"done","request":{"dataset":"cifar10","method":"rs","noise":{}},"created_at":"","trials_done":0,"trials_total":0,"result":{"median_err":0,"q1_err":0,"q3_err":0,"mean_err":0,"finals":[],"budget_rounds":0,"bank_key":""}}`},
		{"state event full", client.Event{Seq: 4, Type: "state", State: "failed", Trial: &client.TrialInfo{Index: 1, Completed: 2, Total: 3, FinalErr: 0.5}, Error: "boom"},
			`{"seq":4,"type":"state","state":"failed","trial":{"index":1,"completed":2,"total":3,"final_err":0.5},"error":"boom"}`},
		{"trial event bare", client.Event{Type: "trial", Trial: &client.TrialInfo{}},
			`{"seq":0,"type":"trial","trial":{"index":0,"completed":0,"total":0,"final_err":0}}`},
		{"event bare", client.Event{Type: "state"},
			`{"seq":0,"type":"state"}`},
		{"session request full", fullSess,
			`{"dataset":"cifar10","method":"tpe","scale":"quick","seed":5,"trial":2,"noise":{"sample_count":2,"sample_fraction":0.5,"bias":1.5,"epsilon":2,"heterogeneity_p":0.5,"uniform":true}}`},
		{"session request bare", bareSess,
			`{"dataset":"cifar10","noise":{}}`},
		{"session status full", client.SessionStatus{
			ID: "sess-000001", Key: "k", State: "done", Request: fullSess, CreatedAt: "c", External: true,
			Asked: 1, Told: 2, Evals: 3, SpentRounds: 4, BudgetRounds: 5, BankKey: "b", PoolSize: 6, MaxRounds: 9,
			Checkpoints: []int{3, 9}, Trials: []client.SessionTrial{full, bare}, Best: &full, Error: "boom"},
			`{"id":"sess-000001","key":"k","state":"done","request":{"dataset":"cifar10","method":"tpe","scale":"quick","seed":5,"trial":2,"noise":{"sample_count":2,"sample_fraction":0.5,"bias":1.5,"epsilon":2,"heterogeneity_p":0.5,"uniform":true}},"created_at":"c","external":true,"asked":1,"told":2,"evals":3,"spent_rounds":4,"budget_rounds":5,"bank_key":"b","pool_size":6,"max_rounds":9,"checkpoints":[3,9],"trials":[` +
				`{"index":1,"source":"ask","ask_id":3,"config_index":2,"config":` + pinHParamsJSON + `,"rounds":9,"observed":0.5,"true_err":0.375,"eval_id":"e-1"},` +
				`{"index":0,"source":"tell","config_index":0,"config":` + pinHParamsJSON + `,"rounds":0,"observed":0,"true_err":0,"eval_id":"tell-0"}],` +
				`"best":{"index":1,"source":"ask","ask_id":3,"config_index":2,"config":` + pinHParamsJSON + `,"rounds":9,"observed":0.5,"true_err":0.375,"eval_id":"e-1"},"error":"boom"}`},
		{"session status bare", client.SessionStatus{ID: "sess-000002", State: "active", Request: bareSess},
			`{"id":"sess-000002","key":"","state":"active","request":{"dataset":"cifar10","noise":{}},"created_at":"","external":false,"asked":0,"told":0,"evals":0,"spent_rounds":0,"budget_rounds":0,"bank_key":"","pool_size":0,"max_rounds":0,"checkpoints":null,"trials":null}`},
		{"ask response", client.AskResponse{Asks: []client.AskItem{{ID: 1, ConfigIndex: 2, Config: pinHParams, Rounds: 3, EvalID: "e"}}, State: "active"},
			`{"asks":[{"id":1,"config_index":2,"config":` + pinHParamsJSON + `,"rounds":3,"eval_id":"e"}],"done":false,"state":"active"}`},
		{"ask response done", client.AskResponse{Asks: []client.AskItem{}, Done: true, State: "done"},
			`{"asks":[],"done":true,"state":"done"}`},
		{"tell request full", client.TellRequest{
			Answers:  []client.TellAnswer{{AskID: 1, Observed: &observed}, {AskID: 2}},
			Evaluate: []client.TellEval{{ConfigIndex: &ci, Config: &hp, Rounds: 9, EvalID: "e"}, {}}},
			`{"answers":[{"ask_id":1,"observed":0.25},{"ask_id":2}],"evaluate":[{"config_index":4,"config":` + pinHParamsJSON + `,"rounds":9,"eval_id":"e"},{}]}`},
		{"tell request bare", client.TellRequest{},
			`{}`},
		{"tell response full", client.TellResponse{Results: []client.SessionTrial{bare}, Done: true, State: "done", Best: &full, SpentRounds: 9},
			`{"results":[{"index":0,"source":"tell","config_index":0,"config":` + pinHParamsJSON + `,"rounds":0,"observed":0,"true_err":0,"eval_id":"tell-0"}],"done":true,"state":"done","best":{"index":1,"source":"ask","ask_id":3,"config_index":2,"config":` + pinHParamsJSON + `,"rounds":9,"observed":0.5,"true_err":0.375,"eval_id":"e-1"},"spent_rounds":9}`},
		{"tell response bare", client.TellResponse{Results: []client.SessionTrial{}, State: "active"},
			`{"results":[],"done":false,"state":"active","spent_rounds":0}`},
		{"error envelope", client.ErrorEnvelope{Error: client.ErrorInfo{Code: CodeNotFound, Message: "no run"}},
			`{"error":{"code":"not_found","message":"no run"}}`},
	} {
		buf, err := encodeBody(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := buf.String(); got != tc.want+"\n" {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		putBody(buf)
	}

	t.Run("http", testWireBytesOverHTTP)
}

// rfc3339 matches the timestamps a status body carries.
var rfc3339 = regexp.MustCompile(`"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?Z"`)

// testWireBytesOverHTTP drives one run and one session through a tiny-config
// daemon and compares every body, timestamps masked, with its pinned bytes.
// The run is held at the worker until its submission has answered, so the
// submit body reads queued every time.
func testWireBytesOverHTTP(t *testing.T) {
	gate := make(chan struct{})
	ts := newTestServer(t, Options{Workers: 1, execGate: func(*Run) { <-gate }})
	check := func(name string, wantStatus int, method, path, body, want string) []byte {
		t.Helper()
		resp, raw := ts.rawCall(t, method, path, body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: status %d, want %d (%s)", name, resp.StatusCode, wantStatus, raw)
		}
		if got := rfc3339.ReplaceAllString(string(raw), `"T"`); got != want+"\n" {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
		return raw
	}

	const req = `{"dataset":"cifar10","method":"rs","trials":1,"seed":11,"noise":{"sample_count":2}}`
	check("submit", http.StatusAccepted, "POST", "/v1/runs", req, wantSubmit)
	close(gate)
	check("events", http.StatusOK, "GET", "/v1/runs/run-000001/events", "", wantEvents)
	resp, raw := ts.rawCall(t, "GET", "/v1/runs/run-000001", "")
	if got := rfc3339.ReplaceAllString(string(raw), `"T"`); got != wantDone+"\n" {
		t.Errorf("terminal get:\n got %s\nwant %s", got, wantDone)
	}
	sum := sha256.Sum256(raw)
	if got, want := resp.Header.Get("ETag"), `"`+hex.EncodeToString(sum[:16])+`"`; got != want {
		t.Errorf("ETag %s, want %s", got, want)
	}
	check("missing run", http.StatusNotFound, "GET", "/v1/runs/run-999999", "",
		`{"error":{"code":"not_found","message":"no run \"run-999999\" (expired or never submitted)"}}`)

	check("session open", http.StatusCreated, "POST", "/v1/sessions",
		`{"dataset":"cifar10","method":"rs","seed":11,"noise":{"sample_count":2}}`, wantSessOpen)
	const sess = "/v1/sessions/sess-000001"
	check("ask", http.StatusOK, "POST", sess+"/ask", "", wantAsk)
	check("tell", http.StatusOK, "POST", sess+"/tell",
		`{"answers":[{"ask_id":0}],"evaluate":[{"config_index":1,"rounds":3,"eval_id":"pin"}]}`, wantTell)
	check("session get", http.StatusOK, "GET", sess, "", wantSessGet)
	check("session close", http.StatusOK, "DELETE", sess, "", wantSessClose)
	check("tell closed", http.StatusNotFound, "POST", sess+"/tell", `{"answers":[{"ask_id":1}]}`,
		`{"error":{"code":"not_found","message":"no session \"sess-000001\" (expired or never opened)"}}`)
}

// The bodies the daemon answers in testWireBytesOverHTTP, pieced together
// from the two pool members and two trials they repeat.
const (
	pinCfg5 = `{"ServerLR":0.007780178252937264,"Beta1":0.7865101031744768,"Beta2":0.20759260681700697,"LRDecay":0.9999,"ClientLR":0.00001672050729196201,"ClientMomentum":0.5676068650765813,"WeightDecay":0.00005,"BatchSize":128,"Epochs":1}`
	pinCfg1 = `{"ServerLR":0.03912818733693455,"Beta1":0.2698862473646789,"Beta2":0.2627674960592673,"LRDecay":0.9999,"ClientLR":0.8433172946000179,"ClientMomentum":0.6998160413636013,"WeightDecay":0.00005,"BatchSize":32,"Epochs":1}`

	pinRunHead  = `{"id":"run-000001","key":"2d678773aa0e345fb58f2da7d1bfd5744661d174b5b5c36b8a2e360272bf5391",`
	pinRunReq   = `"request":{"dataset":"cifar10","method":"rs","scale":"quick","trials":1,"seed":11,"noise":{"sample_count":2}}`
	pinBankKey  = `"bank_key":"a47c2fd813a06de51bc8e66878213d3ebcb27c2dae624085c5516b2aded1f0bc"`
	pinAskTrial = `{"index":0,"source":"ask","ask_id":0,"config_index":5,"config":` + pinCfg5 + `,"rounds":9,"observed":0.8166666666666667,"true_err":0.9166666666666666,"eval_id":"rs-eval-0"}`
	pinTellEval = `"source":"tell","config_index":1,"config":` + pinCfg1 + `,"rounds":3,"observed":0.7,"true_err":0.7222222222222222,"eval_id":"pin"}`

	wantSubmit = pinRunHead + `"state":"queued",` + pinRunReq + `,"created_at":"T","trials_done":0,"trials_total":1}`
	wantEvents = `{"seq":0,"type":"state","state":"queued"}
{"seq":1,"type":"state","state":"running"}
{"seq":2,"type":"trial","trial":{"index":0,"completed":1,"total":1,"final_err":0.6055555555555555}}
{"seq":3,"type":"state","state":"done"}`
	wantDone = pinRunHead + `"state":"done",` + pinRunReq + `,"created_at":"T","started_at":"T","finished_at":"T","trials_done":1,"trials_total":1,` +
		`"result":{"median_err":0.6055555555555555,"q1_err":0.6055555555555555,"q3_err":0.6055555555555555,"mean_err":0.6055555555555555,"finals":[0.6055555555555555],"budget_rounds":36,` +
		pinBankKey + `,"best":{"config":` + pinCfg1 + `,"true_err":0.6055555555555555,"rounds":9}}}`

	pinSessHead = `{"id":"sess-000001","key":"da0aac9ce12f10fbfcea7419afcfb2ff58f54a26f3aa70d1732915cf5f7d4eab",`
	pinSessReq  = `"request":{"dataset":"cifar10","method":"rs","scale":"quick","seed":11,"noise":{"sample_count":2}},"created_at":"T","external":false,`
	pinSessBank = `"budget_rounds":36,` + pinBankKey + `,"pool_size":6,"max_rounds":9,"checkpoints":[1,3,9],`
	pinSessTold = `"asked":1,"told":1,"evals":1,"spent_rounds":3,` + pinSessBank +
		`"trials":[` + pinAskTrial + `,{"index":1,` + pinTellEval + `],"best":` + pinAskTrial + `}`

	wantSessOpen  = pinSessHead + `"state":"active",` + pinSessReq + `"asked":0,"told":0,"evals":0,"spent_rounds":0,` + pinSessBank + `"trials":null}`
	wantAsk       = `{"asks":[{"id":0,"config_index":5,"config":` + pinCfg5 + `,"rounds":9,"eval_id":"rs-eval-0"}],"done":false,"state":"active"}`
	wantTell      = `{"results":[{"index":1,` + pinTellEval + `],"done":false,"state":"active","best":` + pinAskTrial + `,"spent_rounds":3}`
	wantSessGet   = pinSessHead + `"state":"active",` + pinSessReq + pinSessTold
	wantSessClose = pinSessHead + `"state":"closed",` + pinSessReq + pinSessTold
)
