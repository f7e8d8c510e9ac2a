package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/exper"
	"noisyeval/pkg/client"
)

// tinyConfig mirrors exper's test miniature: banks build in tens of
// milliseconds so handler tests stay fast under -race without a warm cache.
func tinyConfig() exper.Config {
	return exper.Config{
		Scales:        map[string]float64{"cifar10": 0.06, "femnist": 0.02, "stackoverflow": 0.002, "reddit": 0.0008},
		CapExamples:   30,
		BankConfigs:   6,
		MaxRounds:     9,
		K:             4,
		Trials:        4,
		MethodTrials:  2,
		Seed:          7,
		Fig13Datasets: []string{"cifar10"},
		Fig13Configs:  4,
	}
}

// testStore returns a bank store rooted in the shared NOISYEVAL_CACHE_DIR
// when set (CI persists it), else in a per-test temp dir.
func testStore(t *testing.T) *core.BankStore {
	t.Helper()
	dir := os.Getenv("NOISYEVAL_CACHE_DIR")
	if dir == "" {
		dir = t.TempDir()
	}
	store, err := core.NewBankStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

type testServer struct {
	*httptest.Server
	mgr *Manager
}

func newTestServer(t *testing.T, opts Options) *testServer {
	t.Helper()
	if opts.Scales == nil {
		opts.Scales = map[string]exper.Config{"quick": tinyConfig()}
	}
	if opts.Store == nil {
		opts.Store = testStore(t)
	}
	mgr := NewManager(opts)
	ts := httptest.NewServer(NewServer(mgr))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	return &testServer{Server: ts, mgr: mgr}
}

// scrapeMetrics returns the body of GET /metrics, prefixed with a newline so
// "\nname value\n" matches whole sample lines.
func (ts *testServer) scrapeMetrics(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, %v", resp.StatusCode, err)
	}
	return "\n" + string(raw)
}

func (ts *testServer) submit(t *testing.T, body string) (*http.Response, client.RunStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st client.RunStatus
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp, st
}

// tryStreamEvents consumes the NDJSON event stream until EOF (terminal
// event) and returns every event. Safe to call from any goroutine.
func (ts *testServer) tryStreamEvents(id string) ([]client.Event, error) {
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return nil, fmt.Errorf("events content-type = %q", ct)
	}
	var events []client.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e client.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	return events, sc.Err()
}

// streamEvents is tryStreamEvents for the common main-goroutine case.
func (ts *testServer) streamEvents(t *testing.T, id string) []client.Event {
	t.Helper()
	events, err := ts.tryStreamEvents(id)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func (ts *testServer) getRun(t *testing.T, id string, header map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, _ := http.NewRequest("GET", ts.URL+"/v1/runs/"+id, nil)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, body
}

const runBody = `{"dataset":"cifar10","method":"rs","trials":3,"seed":11,"noise":{"sample_count":2}}`

func TestSubmitPollStreamResult(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2})

	resp, st := ts.submit(t, runBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/runs/"+st.ID {
		t.Errorf("Location = %q", loc)
	}
	if st.State != string(StateQueued) && st.State != string(StateRunning) {
		t.Errorf("initial state = %q", st.State)
	}
	if st.Key == "" {
		t.Error("missing run key")
	}
	if st.Request.Method != "rs" || st.Request.Scale != "quick" || st.Request.Seed != 11 {
		t.Errorf("normalized request = %+v", st.Request)
	}

	// The stream replays history and ends at the terminal event.
	events := ts.streamEvents(t, st.ID)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	if events[0].Type != "state" || events[0].State != string(StateQueued) {
		t.Errorf("first event = %+v, want queued state", events[0])
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != string(StateDone) {
		t.Fatalf("last event = %+v, want done state", last)
	}
	trials := 0
	seenIdx := map[int]bool{}
	for i, e := range events {
		if e.Seq != i {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
		if e.Type == "trial" {
			trials++
			if e.Trial == nil || e.Trial.Total != 3 {
				t.Fatalf("trial event payload = %+v", e.Trial)
			}
			// Index must serialize explicitly even for trial 0 (no
			// omitempty), so every index is distinct and accounted for.
			seenIdx[e.Trial.Index] = true
		}
	}
	if trials != 3 || len(seenIdx) != 3 {
		t.Errorf("saw %d trial events over %d distinct indices, want 3/3", trials, len(seenIdx))
	}

	// Poll: terminal snapshot carries the result and a strong ETag.
	resp2, body := ts.getRun(t, st.ID, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d", resp2.StatusCode)
	}
	etag := resp2.Header.Get("ETag")
	if etag == "" {
		t.Fatal("terminal run served no ETag")
	}
	var final client.RunStatus
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != string(StateDone) || final.Result == nil {
		t.Fatalf("final = %+v", final)
	}
	if final.TrialsDone != 3 || len(final.Result.Finals) != 3 {
		t.Errorf("trials_done=%d finals=%d", final.TrialsDone, len(final.Result.Finals))
	}
	if final.Result.MedianErr <= 0 || final.Result.MedianErr >= 1 {
		t.Errorf("median error %v outside (0,1)", final.Result.MedianErr)
	}
	if final.Result.BankKey == "" || final.Result.Best == nil {
		t.Errorf("result missing bank key or best config: %+v", final.Result)
	}

	// Conditional GET: 304 on a matching, wildcard, or list-member ETag;
	// 200 on a stale one.
	for _, match := range []string{etag, "*", `"stale-etag", ` + etag} {
		resp304, _ := ts.getRun(t, st.ID, map[string]string{"If-None-Match": match})
		if resp304.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %q status = %d, want 304", match, resp304.StatusCode)
		}
	}
	respStale, _ := ts.getRun(t, st.ID, map[string]string{"If-None-Match": `"stale-etag"`})
	if respStale.StatusCode != http.StatusOK {
		t.Errorf("stale If-None-Match status = %d, want 200", respStale.StatusCode)
	}
}

func TestDedupIdenticalSubmissions(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2})

	_, first := ts.submit(t, runBody)
	ts.streamEvents(t, first.ID) // wait for completion
	_, body1 := ts.getRun(t, first.ID, nil)

	// Identical request → same run, 200, byte-identical result.
	resp, second := ts.submit(t, runBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dedup status = %d, want 200", resp.StatusCode)
	}
	if second.ID != first.ID {
		t.Fatalf("dedup created new run %s (first %s)", second.ID, first.ID)
	}
	dedupBytes, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(dedupBytes, body1) {
		t.Error("dedup response bytes differ from the original run's result bytes")
	}

	// Spelling variants of the same run dedup too (normalization + canonical
	// method name feed the key).
	variant := `{"dataset":"cifar10","method":"RANDOM","scale":"quick","trials":3,"seed":11,"noise":{"sample_count":2}}`
	_, third := ts.submit(t, variant)
	if third.ID != first.ID {
		t.Errorf("variant spelling created new run %s", third.ID)
	}

	// A different seed is a different run.
	other := `{"dataset":"cifar10","method":"rs","trials":3,"seed":12,"noise":{"sample_count":2}}`
	_, fourth := ts.submit(t, other)
	if fourth.ID == first.ID {
		t.Error("different seed deduped onto the same run")
	}
	ts.streamEvents(t, fourth.ID)

	// One dataset ⇒ one trained bank, regardless of how many runs consumed it.
	if n := ts.mgr.BankBuilds(); n > 1 {
		t.Errorf("trained %d banks, want ≤ 1 (store may satisfy all)", n)
	}
	if got := ts.mgr.deduped.Value(); got < 2 {
		t.Errorf("runs_deduped = %d, want ≥ 2", got)
	}
}

func TestConcurrentIdenticalSubmissionsCollapse(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 4})
	const n = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(runBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st client.RunStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got run %s, submission 0 got %s", i, ids[i], ids[0])
		}
	}
	ts.streamEvents(t, ids[0])
	if got := ts.mgr.started.Value(); got != 1 {
		t.Errorf("runs_started = %d, want 1", got)
	}
	if n := ts.mgr.BankBuilds(); n > 1 {
		t.Errorf("trained %d banks, want ≤ 1", n)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t, Options{})
	cases := []struct {
		name, body, code, want string
	}{
		{"malformed JSON", `{"dataset":`, CodeBadRequest, "decode"},
		{"unknown field", `{"dataset":"cifar10","method":"rs","nope":1}`, CodeBadRequest, "nope"},
		{"unknown dataset", `{"dataset":"mnist","method":"rs"}`, CodeUnknownDataset, "unknown dataset"},
		{"unknown method", `{"dataset":"cifar10","method":"sgd"}`, CodeUnknownMethod, "rs"},
		{"unknown scale", `{"dataset":"cifar10","method":"rs","scale":"galactic"}`, CodeUnknownScale, "unknown scale"},
		{"negative trials", `{"dataset":"cifar10","method":"rs","trials":-2}`, CodeInvalidTrials, "trials"},
		{"excess trials", fmt.Sprintf(`{"dataset":"cifar10","method":"rs","trials":%d}`, MaxTrials+1), CodeInvalidTrials, "trials"},
		{"bad fraction", `{"dataset":"cifar10","method":"rs","noise":{"sample_fraction":1.5}}`, CodeInvalidNoise, "sample_fraction"},
		{"bad partition", `{"dataset":"cifar10","method":"rs","noise":{"heterogeneity_p":0.3}}`, CodeBadRequest, "heterogeneity p=0.3"},
	}
	for _, tc := range cases {
		resp, _ := ts.submit(t, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		var eb client.ErrorEnvelope
		if err := json.Unmarshal(raw, &eb); err != nil || !strings.Contains(eb.Error.Message, tc.want) {
			t.Errorf("%s: error body %q does not mention %q", tc.name, raw, tc.want)
		}
		if eb.Error.Code != tc.code {
			t.Errorf("%s: error code = %q, want %q", tc.name, eb.Error.Code, tc.code)
		}
	}
	if got := ts.mgr.started.Value(); got != 0 {
		t.Errorf("bad requests started %d runs", got)
	}
}

func TestNotFoundAndList(t *testing.T) {
	ts := newTestServer(t, Options{})
	resp, _ := ts.getRun(t, "run-999999", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing run status = %d, want 404", resp.StatusCode)
	}

	_, st := ts.submit(t, runBody)
	ts.streamEvents(t, st.ID)
	listResp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list client.RunPage
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 1 || list.Runs[0].ID != st.ID || list.Runs[0].State != string(StateDone) {
		t.Errorf("list = %+v", list.Runs)
	}
}

func TestHealthVarsAndBanks(t *testing.T) {
	ts := newTestServer(t, Options{})
	_, st := ts.submit(t, runBody)
	ts.streamEvents(t, st.ID)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	metrics := ts.scrapeMetrics(t)
	for _, series := range []string{
		"\nruns_started_total 1\n", "\nruns_completed_total 1\n",
		"\nruns_failed_total ", "\nruns_deduped_total ", "\nbank_cache_hits_total ", "\nbank_cache_misses_total ", "\nhttp_requests_total ",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(series))
		}
	}

	bresp, err := http.Get(ts.URL + "/v1/banks")
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	var banks struct {
		Dir   string      `json:"dir"`
		Banks []bankEntry `json:"banks"`
	}
	if err := json.NewDecoder(bresp.Body).Decode(&banks); err != nil {
		t.Fatal(err)
	}
	if banks.Dir == "" || len(banks.Banks) < 1 {
		t.Errorf("banks = %+v, want ≥ 1 cached bank", banks)
	}
	for _, b := range banks.Banks {
		if b.Key == "" || b.Bytes <= 0 {
			t.Errorf("bad bank entry %+v", b)
		}
	}
}

func TestFailedRunReportsAndRetries(t *testing.T) {
	// A run whose oracle construction fails at execution time: SampleCount
	// larger than the validation pool passes static validation but the
	// evaluator rejects it — the run must land in failed with an error, and
	// an identical resubmission must not dedup onto the failure.
	ts := newTestServer(t, Options{})
	body := `{"dataset":"cifar10","method":"rs","trials":2,"noise":{"sample_count":1000000}}`
	resp, st := ts.submit(t, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	events := ts.streamEvents(t, st.ID)
	last := events[len(events)-1]
	if last.State != string(StateFailed) || last.Error == "" {
		t.Fatalf("terminal event = %+v, want failed with error", last)
	}
	_, retry := ts.submit(t, body)
	if retry.ID == st.ID {
		t.Error("resubmission deduped onto a failed run")
	}
	ts.streamEvents(t, retry.ID)
	if got := ts.mgr.failed.Value(); got != 2 {
		t.Errorf("runs_failed = %d, want 2", got)
	}
}

// TestManagerSilentByDefault pins the loggers of a manager and a run journal
// nobody configured: NewManager and OpenRunJournal install discard loggers,
// so a failed run (logged by the manager) and the compactions after it and
// at shutdown (logged by the journal) neither panic nor write.
func TestManagerSilentByDefault(t *testing.T) {
	jr, err := OpenRunJournal(JournalOptions{Dir: t.TempDir(), CompactWALBytes: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(Options{
		Scales:  map[string]exper.Config{"quick": tinyConfig()},
		Store:   testStore(t),
		Journal: jr,
	})
	ctx := context.Background()
	if mgr.log.Enabled(ctx, slog.LevelError) || jr.log.Enabled(ctx, slog.LevelError) {
		t.Fatal("a manager or journal with no logger configured logs")
	}
	run, _, err := mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2,
		Noise: client.Noise{SampleCount: 1000000}})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); !run.State().Terminal(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("run never finished")
		}
	}
	if run.State() != StateFailed {
		t.Fatalf("run finished %s, want failed", run.State())
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if jr.Stats().Compactions == 0 {
		t.Error("the journal never compacted")
	}
}

func TestSSEFraming(t *testing.T) {
	ts := newTestServer(t, Options{})
	_, st := ts.submit(t, runBody)
	ts.streamEvents(t, st.ID) // complete first; SSE then replays history

	req, _ := http.NewRequest("GET", ts.URL+"/v1/runs/"+st.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "event: state\ndata: ") {
		t.Errorf("SSE framing missing, got %q", raw)
	}
}
