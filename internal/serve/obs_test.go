package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/dist"
	"noisyeval/internal/exper"
	"noisyeval/internal/obs"
)

// getTrace fetches GET /v1/runs/{id}/trace and decodes the timeline.
func (ts *testServer) getTrace(t *testing.T, id string) (int, obs.TraceView) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tv obs.TraceView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, tv
}

// waitForSpan polls the trace endpoint until the named span appears: the
// terminal event is published a hair before the response.encode span lands,
// so tests that race the finish must wait, not assert once.
func (ts *testServer) waitForSpan(t *testing.T, id, name string) obs.TraceView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, tv := ts.getTrace(t, id)
		if code == http.StatusOK {
			for _, sp := range tv.Spans {
				if sp.Name == name {
					return tv
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("span %q never appeared in trace of %s (got %+v)", name, id, tv.Spans)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func spansNamed(tv obs.TraceView, name string) []obs.SpanView {
	var out []obs.SpanView
	for _, sp := range tv.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{})
	_, st := ts.submit(t, `{"dataset":"cifar10","method":"rs","trials":2,"scale":"quick"}`)
	ts.streamEvents(t, st.ID)

	// The terminal event is published inside Run.finish; the worker observes
	// run_exec_seconds just after it returns, so a scrape racing the end of
	// the stream may be one sample short. Wait for the sample, not the stream.
	var body string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Fatalf("content-type = %q", ct)
		}
		body = string(raw)
		if strings.Contains(body, "run_exec_seconds_count 1") || time.Now().After(deadline) {
			break
		}
	}

	// Exact values where this manager's traffic determines them.
	for _, want := range []string{
		"# TYPE runs_admitted_total counter",
		"runs_admitted_total 1",
		"runs_completed_total 1",
		"run_exec_seconds_count 1",
		"run_queue_wait_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Presence only for series shared beyond this manager: the core oracle
	// histograms are process-global, so their values depend on test order.
	for _, series := range []string{
		"# TYPE oracle_trial_seconds histogram",
		"oracle_trial_seconds_bucket",
		"oracle_trials_total",
		"# TYPE run_exec_seconds histogram",
		"bank_cache_hits_total",
		"http_requests_total",
		"runs_queued 0",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics missing series %q", series)
		}
	}
}

func TestRunTraceEndpoint(t *testing.T) {
	dir := t.TempDir()
	jr, err := OpenRunJournal(JournalOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Options{Journal: jr})
	_, st := ts.submit(t, `{"dataset":"cifar10","method":"rs","trials":2,"scale":"quick"}`)
	ts.streamEvents(t, st.ID)

	tv := ts.waitForSpan(t, st.ID, "response.encode")
	if tv.TraceID == "" {
		t.Fatal("trace has no trace_id")
	}
	for _, name := range []string{"journal.append", "queue.wait", "oracle.trials", "response.encode"} {
		if len(spansNamed(tv, name)) != 1 {
			t.Errorf("want exactly one %q span, got %d (spans %+v)", name, len(spansNamed(tv, name)), tv.Spans)
		}
	}
	ot := spansNamed(tv, "oracle.trials")[0]
	if ot.Attrs["dataset"] != "cifar10" || ot.Attrs["method"] != "RS" || ot.Attrs["trials"] != "2" {
		t.Errorf("oracle.trials attrs = %v", ot.Attrs)
	}
	// The bank was either looked up or built — one of the two spans exists.
	if len(spansNamed(tv, "bank.build"))+len(spansNamed(tv, "bank.lookup")) == 0 {
		t.Errorf("no bank.build or bank.lookup span: %+v", tv.Spans)
	}

	if code, _ := ts.getTrace(t, "run-999999"); code != http.StatusNotFound {
		t.Errorf("trace of unknown run = %d, want 404", code)
	}
}

// TestClusterTraceEndToEnd is the acceptance path: a cold run through a
// 2-worker cluster yields one trace holding the coordinator's fleet-build
// span and the workers' shard.train spans, all under the run's trace ID.
func TestClusterTraceEndToEnd(t *testing.T) {
	store, err := core.NewBankStore(t.TempDir()) // cold by construction
	if err != nil {
		t.Fatal(err)
	}
	coord := dist.NewCoordinator(dist.CoordinatorOptions{
		Store:        store,
		ShardConfigs: 2, // tinyConfig banks have 6 configs → 3 shard jobs
		LeaseTTL:     time.Minute,
		SelfBuild:    0, // all shards must come from the external workers
	})
	defer coord.Close()

	mgr := NewManager(Options{
		Store:   store,
		Builder: &dist.Builder{Store: store, Coord: coord},
		Scales:  map[string]exper.Config{"quick": tinyConfig()},
	})
	srv := NewServer(mgr)
	coord.Register(srv.Mux())
	hts := httptest.NewServer(srv)
	ts := &testServer{Server: hts, mgr: mgr}
	t.Cleanup(func() {
		hts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, name := range []string{"w1", "w2"} {
		w := dist.NewWorker(dist.WorkerOptions{
			Coordinator: hts.URL, Name: name, Poll: 5 * time.Millisecond,
		})
		go w.Run(ctx)
	}

	_, st := ts.submit(t, `{"dataset":"cifar10","method":"rs","trials":2,"scale":"quick"}`)
	ts.streamEvents(t, st.ID)
	tv := ts.waitForSpan(t, st.ID, "response.encode")

	if tv.TraceID == "" {
		t.Fatal("cluster trace has no trace_id")
	}
	builds := spansNamed(tv, "bank.build")
	if len(builds) != 1 || builds[0].Attrs["source"] != "fleet" {
		t.Fatalf("want one bank.build span with source=fleet, got %+v", builds)
	}
	shards := spansNamed(tv, "shard.train")
	if len(shards) != 3 {
		t.Fatalf("want 3 shard.train spans (6 configs / 2 per shard), got %d: %+v", len(shards), shards)
	}
	for _, sp := range shards {
		if w := sp.Attrs["worker"]; w != "w1" && w != "w2" {
			t.Errorf("shard.train from unexpected worker %q (self-build is off)", w)
		}
		if sp.Attrs["range"] == "" {
			t.Errorf("shard.train span missing range attr: %v", sp.Attrs)
		}
	}
}
