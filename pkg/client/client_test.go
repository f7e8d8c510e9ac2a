package client_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"noisyeval/internal/exper"
	"noisyeval/internal/serve"
	"noisyeval/pkg/client"
)

// newDaemon boots an in-process noisyevald over a miniature suite — the
// same server main() serves, end to end over real HTTP.
func newDaemon(t *testing.T) *client.Client {
	t.Helper()
	cfg := exper.Config{
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
	mgr := serve.NewManager(serve.Options{Scales: map[string]exper.Config{"quick": cfg}})
	ts := httptest.NewServer(serve.NewServer(mgr))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	return client.New(ts.URL)
}

func TestRunLifecycleAndEvents(t *testing.T) {
	c := newDaemon(t)
	ctx := context.Background()

	st, err := c.SubmitRun(ctx, client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 11, Noise: client.Noise{SampleCount: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var events []client.Event
	if err := c.StreamEvents(ctx, st.ID, -1, func(e client.Event) error { events = append(events, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events")
	}
	// Resume after the first event: replay must skip it.
	var resumed []client.Event
	if err := c.StreamEvents(ctx, st.ID, events[0].Seq, func(e client.Event) error { resumed = append(resumed, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(resumed) != len(events)-1 || (len(resumed) > 0 && resumed[0].Seq != events[1].Seq) {
		t.Errorf("resume replayed %d events from seq %d, want %d from %d",
			len(resumed), resumed[0].Seq, len(events)-1, events[1].Seq)
	}

	final, err := c.WaitRun(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Result == nil || final.Result.Best == nil {
		t.Fatalf("final = %+v", final)
	}

	page, err := c.ListRuns(ctx, client.ListRunsOptions{State: "done", Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Runs) != 1 || page.Runs[0].ID != st.ID {
		t.Errorf("list = %+v", page.Runs)
	}
}

// TestSessionParity is the end-to-end ask/tell parity pin through the public
// client: DriveSession over the wire reproduces the server-driven run's
// recommendation for the same (dataset, method, noise, seed, trial 0).
func TestSessionParity(t *testing.T) {
	c := newDaemon(t)
	ctx := context.Background()
	for _, method := range []string{"rs", "sha"} {
		st, err := c.SubmitRun(ctx, client.RunRequest{Dataset: "cifar10", Method: method, Trials: 1, Seed: 5, Noise: client.Noise{SampleCount: 2}})
		if err != nil {
			t.Fatal(err)
		}
		run, err := c.WaitRun(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := c.OpenSession(ctx, client.SessionRequest{Dataset: "cifar10", Method: method, Seed: 5, Noise: client.Noise{SampleCount: 2}})
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.DriveSession(ctx, sess.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != "done" || final.Best == nil {
			t.Fatalf("%s: session final = %+v", method, final)
		}
		want := run.Result.Best
		if final.Best.Config != want.Config || final.Best.Rounds != want.Rounds || final.Best.TrueErr != want.TrueErr {
			t.Errorf("%s: session best %+v != run best %+v", method, *final.Best, *want)
		}
	}
}

func TestExternalSessionAndErrors(t *testing.T) {
	c := newDaemon(t)
	ctx := context.Background()

	sess, err := c.OpenSession(ctx, client.SessionRequest{Dataset: "cifar10", Seed: 2, Noise: client.Noise{SampleCount: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !sess.External || sess.PoolSize == 0 {
		t.Fatalf("session = %+v", sess)
	}
	idx := 1
	resp, err := c.Tell(ctx, sess.ID, client.TellRequest{Evaluate: []client.TellEval{{ConfigIndex: &idx, Rounds: sess.MaxRounds}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].ConfigIndex != 1 || resp.SpentRounds == 0 {
		t.Errorf("tell = %+v", resp)
	}
	// Vector form snaps to the evaluated member's own index.
	cfg := resp.Results[0].Config
	resp2, err := c.Tell(ctx, sess.ID, client.TellRequest{Evaluate: []client.TellEval{{Config: &cfg}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Results[0].ConfigIndex != 1 {
		t.Errorf("vector snapped to %d, want 1", resp2.Results[0].ConfigIndex)
	}
	if _, err := c.CloseSession(ctx, sess.ID); err != nil {
		t.Fatal(err)
	}

	// Coded errors surface as APIError with the server's code.
	_, err = c.SubmitRun(ctx, client.RunRequest{Dataset: "cifar10", Method: "sgd"})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Code != "unknown_method" || ae.Status != 400 {
		t.Errorf("unknown method error = %v", err)
	}
	_, err = c.Ask(ctx, "sess-999999")
	if !errors.As(err, &ae) || ae.Code != "not_found" || ae.Status != 404 {
		t.Errorf("missing session error = %v", err)
	}
}

func TestMethodsCatalogue(t *testing.T) {
	c := newDaemon(t)
	methods, err := c.Methods(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, m := range methods {
		found[m.Name] = true
	}
	for _, want := range []string{"rs", "sha", "fedpop"} {
		if !found[want] {
			t.Errorf("catalogue missing %q", want)
		}
	}
}
