package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"noisyeval/internal/exper"
	"noisyeval/pkg/client"
)

// TestGracefulShutdownDrainsInFlightCancelsQueued pins the shutdown
// contract: the in-flight run completes with a real result, queued runs are
// cancelled without executing, and late submissions are rejected. The
// execGate hook holds the single worker at the head of run A until both
// queued runs are in place, making the schedule deterministic.
func TestGracefulShutdownDrainsInFlightCancelsQueued(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan *Run, 1)
	opts := Options{
		Workers: 1,
		Store:   nil,
		Scales:  map[string]exper.Config{"quick": tinyConfig()},
		execGate: func(r *Run) {
			entered <- r
			<-gate
		},
	}
	opts.Store = testStore(t)
	mgr := NewManager(opts)

	submit := func(seed uint64) *Run {
		t.Helper()
		run, created, err := mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: seed})
		if err != nil || !created {
			t.Fatalf("submit seed %d: created=%v err=%v", seed, created, err)
		}
		return run
	}

	inflight := submit(1)
	select {
	case got := <-entered:
		if got != inflight {
			t.Fatalf("worker picked %s, want %s", got.ID, inflight.ID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the first run")
	}
	queuedA, queuedB := submit(2), submit(3)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- mgr.Shutdown(ctx)
	}()

	// Submissions during shutdown are rejected. Shutdown marks closed
	// synchronously before waiting, but give the goroutine a beat to run;
	// until then the probe (identical to queuedB) merely dedups, creating
	// no extra runs.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, created, err := mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 3})
		if errors.Is(err, ErrShuttingDown) {
			break
		}
		if created || time.Now().After(deadline) {
			t.Fatalf("submission during shutdown not rejected (created=%v err=%v)", created, err)
		}
		time.Sleep(time.Millisecond)
	}

	close(gate) // release the in-flight run; drain proceeds
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if st := inflight.State(); st != StateDone {
		t.Errorf("in-flight run state = %q, want done (drained)", st)
	}
	if _, body, _ := inflight.Snapshot(); body == nil {
		t.Error("drained run has no result bytes")
	}
	for _, q := range []*Run{queuedA, queuedB} {
		if st := q.State(); st != StateCancelled {
			t.Errorf("queued run %s state = %q, want cancelled", q.ID, st)
		}
	}
	if done, cancelled := mgr.completed.Value(), mgr.cancelled.Value(); done != 1 || cancelled != 2 {
		t.Errorf("counters = %d completed / %d cancelled, want 1 / 2", done, cancelled)
	}

	// Idempotent.
	if err := mgr.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestShutdownCancelledRunStreamsTerminate verifies a queued run's event
// stream ends with the cancelled state when shutdown drains the queue — a
// client watching /events is not left hanging.
func TestShutdownCancelledRunStreamsTerminate(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	opts := Options{
		Workers: 1,
		Store:   testStore(t),
		Scales:  map[string]exper.Config{"quick": tinyConfig()},
		execGate: func(*Run) {
			entered <- struct{}{}
			<-gate
		},
	}
	mgr := NewManager(opts)
	ts := &testServer{Server: httptest.NewServer(NewServer(mgr)), mgr: mgr}
	defer ts.Close()

	_, first := ts.submit(t, `{"dataset":"cifar10","method":"rs","trials":2,"seed":1}`)
	<-entered
	_, queued := ts.submit(t, `{"dataset":"cifar10","method":"rs","trials":2,"seed":2}`)

	type streamOut struct {
		events []client.Event
		err    error
	}
	got := make(chan streamOut, 1)
	go func() {
		events, err := ts.tryStreamEvents(queued.ID)
		got <- streamOut{events, err}
	}()

	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}()
	// Wait until shutdown has registered (submissions rejected — the probe
	// is identical to the queued run, so until then it only dedups), then
	// release the in-flight run so draining can finish.
	for {
		_, _, err := mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 2})
		if errors.Is(err, ErrShuttingDown) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	select {
	case out := <-got:
		if out.err != nil || len(out.events) == 0 {
			t.Fatalf("stream: events=%d err=%v", len(out.events), out.err)
		}
		last := out.events[len(out.events)-1]
		if last.State != string(StateCancelled) || !strings.Contains(last.Error, "shutting down") {
			t.Fatalf("terminal event = %+v, want cancelled with reason", last)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("event stream of cancelled run never terminated")
	}
	_ = first
}

// TestShutdownTimeout: a wedged in-flight run makes Shutdown return the
// context error instead of hanging.
func TestShutdownTimeout(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	opts := Options{
		Workers: 1,
		Store:   testStore(t),
		Scales:  map[string]exper.Config{"quick": tinyConfig()},
		execGate: func(*Run) {
			entered <- struct{}{}
			<-gate
		},
	}
	mgr := NewManager(opts)
	defer close(gate)
	if _, _, err := mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := mgr.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
}

// TestShutdownParksQueuedRunsWithJournal pins the journaled shutdown
// contract: the in-flight run drains, but queued runs are parked — left in
// the queued state, their submit records durable — instead of cancelled,
// and a subsequent manager on the same journal re-admits and completes
// them. Subscribers of a parked run see their stream end without a terminal
// event (the reconnect-and-resume signal), not a bogus cancellation.
func TestShutdownParksQueuedRunsWithJournal(t *testing.T) {
	dir := t.TempDir()
	store := testStore(t)
	scales := map[string]exper.Config{"quick": tinyConfig()}
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	mgr := NewManager(Options{
		Workers: 1, Store: store, Scales: scales,
		Journal: openTestJournal(t, dir),
		execGate: func(*Run) {
			entered <- struct{}{}
			<-gate
		},
	})

	submit := func(seed uint64) *Run {
		t.Helper()
		run, created, err := mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: seed})
		if err != nil || !created {
			t.Fatalf("submit seed %d: created=%v err=%v", seed, created, err)
		}
		return run
	}
	inflight := submit(1)
	<-entered
	queuedA, queuedB := submit(2), submit(3)

	// A client watching a queued run must be released at park time.
	replay, ch, cancelSub := queuedA.Subscribe()
	defer cancelSub()
	if len(replay) != 1 || replay[0].State != string(StateQueued) {
		t.Fatalf("queued run replay = %+v", replay)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- mgr.Shutdown(ctx)
	}()
	for {
		_, _, err := mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 3})
		if errors.Is(err, ErrShuttingDown) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if st := inflight.State(); st != StateDone {
		t.Errorf("in-flight run state = %q, want done (drained)", st)
	}
	for _, q := range []*Run{queuedA, queuedB} {
		if st := q.State(); st != StateQueued {
			t.Errorf("parked run %s state = %q, want queued (not cancelled)", q.ID, st)
		}
	}
	select {
	case e, ok := <-ch:
		if ok {
			t.Errorf("parked run emitted event %+v; its channel should just close", e)
		}
	case <-time.After(5 * time.Second):
		t.Error("parked run's subscriber channel never closed")
	}
	if parked, cancelled := mgr.parked.Value(), mgr.cancelled.Value(); parked != 2 || cancelled != 0 {
		t.Errorf("counters = parked %d / cancelled %d, want 2 / 0", parked, cancelled)
	}

	// Next boot: the parked runs are recovered and complete.
	jr2 := openTestJournal(t, dir)
	mgr2 := NewManager(Options{Workers: 2, Store: store, Scales: scales, Journal: jr2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr2.Shutdown(ctx)
	})
	if got := mgr2.recovered.Value(); got != 2 {
		t.Fatalf("RunsRecovered = %d, want 2", got)
	}
	for _, id := range []string{queuedA.ID, queuedB.ID} {
		run, ok := mgr2.Registry().Get(id)
		if !ok {
			t.Fatalf("recovered manager is missing parked run %s", id)
		}
		waitState(t, run, StateDone)
	}
	// The terminal run recovered too — served from the snapshot.
	if run, ok := mgr2.Registry().Get(inflight.ID); !ok || run.State() != StateDone {
		t.Errorf("drained run %s not recovered as done", inflight.ID)
	}
}

// TestShutdownWithoutJournalStillCancels pins that the pre-journal shutdown
// behavior is preserved when no journal is configured: parked state would be
// a lie (nothing re-admits the runs), so they are cancelled visibly.
func TestShutdownWithoutJournalStillCancels(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	mgr := NewManager(Options{
		Workers: 1, Store: testStore(t),
		Scales: map[string]exper.Config{"quick": tinyConfig()},
		execGate: func(*Run) {
			entered <- struct{}{}
			<-gate
		},
	})
	if _, _, err := mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-entered
	queued, _, err := mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			_, _, err := mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 2})
			if errors.Is(err, ErrShuttingDown) {
				close(gate)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StateCancelled {
		t.Errorf("queued run state = %q, want cancelled without a journal", st)
	}
}

func TestQueueBackpressure(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	opts := Options{
		Workers:    1,
		QueueDepth: 1,
		Store:      testStore(t),
		Scales:     map[string]exper.Config{"quick": tinyConfig()},
		execGate: func(*Run) {
			entered <- struct{}{}
			<-gate
		},
	}
	mgr := NewManager(opts)
	defer func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}()

	if _, _, err := mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-entered // worker busy; queue empty
	if _, _, err := mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 2}); err != nil {
		t.Fatal(err) // fills the queue
	}
	_, _, err := mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 3})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	// The rejected run must not linger in the registry (a retry after the
	// queue drains should be creatable).
	if n := mgr.Registry().Len(); n != 2 {
		t.Errorf("registry holds %d runs after rejection, want 2", n)
	}
}
