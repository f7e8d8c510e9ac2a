package serve

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/exper"
	"noisyeval/internal/serve/journal"
	"noisyeval/pkg/client"
)

// jrec builds one journal record from a typed payload.
func jrec(t *testing.T, kind string, v any) journal.Record {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return journal.Record{Kind: kind, Data: data}
}

// TestFoldTransitionOrderings is the table-driven FSM test over the journal
// fold: every ordering of submit/start/terminal records — including the
// duplicates and orphans a crash mid-compaction can produce — folds to the
// documented recovered state.
func TestFoldTransitionOrderings(t *testing.T) {
	req := client.RunRequest{Dataset: "cifar10", Method: "rs", Scale: "quick", Trials: 2, Seed: 1}
	sub := func(id string) submitRecord {
		return submitRecord{ID: id, Key: "key-" + id, Request: req, CreatedNs: 1000}
	}
	start := func(id string) startRecord { return startRecord{ID: id, StartedNs: 2000} }
	done := func(id string) terminalRecord {
		return terminalRecord{ID: id, State: StateDone, TrialsDone: 2, StartedNs: 2000, FinishedNs: 3000}
	}

	cases := []struct {
		name    string
		records []journal.Record
		want    []RecoveredRun // ID/State/TrialsDone only; zero-length = nothing recovered
		dropped int64
	}{
		{
			name:    "submit only folds to queued",
			records: []journal.Record{jrec(t, jkSubmit, sub("run-000001"))},
			want:    []RecoveredRun{{ID: "run-000001", State: StateQueued}},
		},
		{
			name: "submit then start folds to running",
			records: []journal.Record{
				jrec(t, jkSubmit, sub("run-000001")), jrec(t, jkStart, start("run-000001")),
			},
			want: []RecoveredRun{{ID: "run-000001", State: StateRunning}},
		},
		{
			name: "full lifecycle folds to done",
			records: []journal.Record{
				jrec(t, jkSubmit, sub("run-000001")), jrec(t, jkStart, start("run-000001")),
				jrec(t, jkTerminal, done("run-000001")),
			},
			want: []RecoveredRun{{ID: "run-000001", State: StateDone, TrialsDone: 2}},
		},
		{
			name: "terminal without start still folds to done",
			records: []journal.Record{
				jrec(t, jkSubmit, sub("run-000001")), jrec(t, jkTerminal, done("run-000001")),
			},
			want: []RecoveredRun{{ID: "run-000001", State: StateDone, TrialsDone: 2}},
		},
		{
			name:    "orphan start is dropped",
			records: []journal.Record{jrec(t, jkStart, start("run-000009"))},
			want:    []RecoveredRun{},
			dropped: 1,
		},
		{
			name:    "orphan terminal is dropped",
			records: []journal.Record{jrec(t, jkTerminal, done("run-000009"))},
			want:    []RecoveredRun{},
			dropped: 1,
		},
		{
			name: "duplicate submit ignored (snapshot + stale WAL)",
			records: []journal.Record{
				jrec(t, jkSubmit, sub("run-000001")), jrec(t, jkTerminal, done("run-000001")),
				jrec(t, jkSubmit, sub("run-000001")),
			},
			want: []RecoveredRun{{ID: "run-000001", State: StateDone, TrialsDone: 2}},
		},
		{
			name: "start after terminal ignored",
			records: []journal.Record{
				jrec(t, jkSubmit, sub("run-000001")), jrec(t, jkTerminal, done("run-000001")),
				jrec(t, jkStart, start("run-000001")),
			},
			want: []RecoveredRun{{ID: "run-000001", State: StateDone, TrialsDone: 2}},
		},
		{
			name: "first terminal wins",
			records: []journal.Record{
				jrec(t, jkSubmit, sub("run-000001")),
				jrec(t, jkTerminal, terminalRecord{ID: "run-000001", State: StateFailed, Error: "boom", FinishedNs: 3000}),
				jrec(t, jkTerminal, done("run-000001")),
			},
			want: []RecoveredRun{{ID: "run-000001", State: StateFailed}},
		},
		{
			name: "terminal record with non-terminal state dropped",
			records: []journal.Record{
				jrec(t, jkSubmit, sub("run-000001")),
				jrec(t, jkTerminal, terminalRecord{ID: "run-000001", State: StateRunning, FinishedNs: 3000}),
			},
			want:    []RecoveredRun{{ID: "run-000001", State: StateQueued}},
			dropped: 1,
		},
		{
			name: "malformed and unknown records dropped around intact ones",
			records: []journal.Record{
				{Kind: jkSubmit, Data: []byte("{not json")},
				{Kind: "mystery", Data: []byte("{}")},
				jrec(t, jkSubmit, sub("run-000002")),
			},
			want:    []RecoveredRun{{ID: "run-000002", State: StateQueued}},
			dropped: 2,
		},
		{
			name: "submission order preserved across interleaved lifecycles",
			records: []journal.Record{
				jrec(t, jkSubmit, sub("run-000001")), jrec(t, jkSubmit, sub("run-000002")),
				jrec(t, jkStart, start("run-000002")), jrec(t, jkTerminal, done("run-000001")),
			},
			want: []RecoveredRun{
				{ID: "run-000001", State: StateDone, TrialsDone: 2},
				{ID: "run-000002", State: StateRunning},
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rj := &RunJournal{}
			got := rj.fold(tc.records)
			if len(got) != len(tc.want) {
				t.Fatalf("recovered %d runs, want %d (%+v)", len(got), len(tc.want), got)
			}
			for i, w := range tc.want {
				g := got[i]
				if g.ID != w.ID || g.State != w.State || g.TrialsDone != w.TrialsDone {
					t.Errorf("run %d = {ID:%s State:%s Trials:%d}, want {ID:%s State:%s Trials:%d}",
						i, g.ID, g.State, g.TrialsDone, w.ID, w.State, w.TrialsDone)
				}
			}
			if rj.dropped != tc.dropped {
				t.Errorf("dropped = %d, want %d", rj.dropped, tc.dropped)
			}
		})
	}
}

// openTestJournal opens a RunJournal on dir with fsyncs disabled (tests).
func openTestJournal(t *testing.T, dir string) *RunJournal {
	t.Helper()
	jr, err := OpenRunJournal(JournalOptions{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return jr
}

// TestCrashRecoveryEndToEnd simulates a crash: manager 1 completes one run,
// wedges another in-flight, holds a third queued, and is then abandoned
// without shutdown (its journal never sees terminal records for the last
// two). A second manager on the same journal must serve the finished run's
// exact bytes from the snapshot and re-execute the other two to the same
// results an uninterrupted daemon would have produced.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	store := testStore(t)
	scales := map[string]exper.Config{"quick": tinyConfig()}
	submitReq := func(seed uint64) client.RunRequest {
		return client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: seed}
	}

	// Manager 1: seed-3 completes; seed-1 wedges in execGate forever (the
	// "crash" leaves its goroutine blocked — never released); seed-2 queues.
	wedge := make(chan struct{}) // never closed: simulates the process dying mid-run
	mgr1 := NewManager(Options{
		Workers: 1, QueueDepth: 8, Store: store, Scales: scales,
		Journal: openTestJournal(t, dir),
		execGate: func(r *Run) {
			if r.Req.Seed == 1 {
				<-wedge
			}
		},
	})
	finished, _, err := mgr1.Submit(submitReq(3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, finished, StateDone)
	_, origBody, origETag := finished.Snapshot()
	if origBody == nil {
		t.Fatal("finished run has no cached body")
	}
	if _, _, err := mgr1.Submit(submitReq(1)); err != nil { // wedges in-flight
		t.Fatal(err)
	}
	if _, _, err := mgr1.Submit(submitReq(2)); err != nil { // stays queued
		t.Fatal(err)
	}
	// Give the worker a moment to dequeue seed-1 into the gate, then abandon
	// mgr1 — no Shutdown, exactly like a kill -9.
	time.Sleep(50 * time.Millisecond)

	// Manager 2 on the same journal directory.
	jr2 := openTestJournal(t, dir)
	if got := len(jr2.Recovered()); got != 3 {
		t.Fatalf("recovered %d runs, want 3 (%+v)", got, jr2.Recovered())
	}
	mgr2 := NewManager(Options{Workers: 2, QueueDepth: 8, Store: store, Scales: scales, Journal: jr2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr2.Shutdown(ctx)
	})

	// The finished run is served from the journal byte-for-byte, without
	// re-execution.
	rec, ok := mgr2.Registry().Get(finished.ID)
	if !ok {
		t.Fatalf("recovered registry is missing terminal run %s", finished.ID)
	}
	if st := rec.State(); st != StateDone {
		t.Fatalf("recovered terminal run state = %q", st)
	}
	_, recBody, recETag := rec.Snapshot()
	if string(recBody) != string(origBody) {
		t.Errorf("recovered body differs from original:\n--- original\n%s\n--- recovered\n%s", origBody, recBody)
	}
	if recETag != origETag {
		t.Errorf("recovered etag %s != original %s", recETag, origETag)
	}

	// The interrupted runs re-execute to completion.
	if got := mgr2.recovered.Value(); got != 2 {
		t.Errorf("RunsRecovered = %d, want 2", got)
	}
	for _, seed := range []uint64{1, 2} {
		// Resubmitting the identical request must dedup onto the recovering
		// run, not execute a duplicate.
		run, created, err := mgr2.Submit(submitReq(seed))
		if err != nil {
			t.Fatalf("resubmit seed %d: %v", seed, err)
		}
		if created {
			t.Errorf("resubmit seed %d created a fresh run instead of coalescing onto the recovered one", seed)
		}
		waitState(t, run, StateDone)

		// Deterministic re-execution: an uninterrupted run of the same
		// request (fresh manager, no journal) produces the same result.
		events := runEvents(run)
		if events[0].State != string(StateQueued) || events[1].State != string(StateRunning) {
			t.Errorf("seed %d recovered event prefix = %+v, want queued,running at seq 0,1", seed, events[:2])
		}
		for i, e := range events {
			if e.Seq != i {
				t.Errorf("seed %d event %d has seq %d — recovered streams must renumber from 0", seed, i, e.Seq)
			}
		}
		st, _, _ := run.Snapshot()
		ref := referenceResult(t, store, scales, submitReq(seed))
		if !reflect.DeepEqual(st.Result, ref.Result) {
			t.Errorf("seed %d recovered result %+v != uninterrupted reference %+v", seed, st.Result, ref.Result)
		}
	}

	if got := mgr2.deduped.Value(); got != 2 {
		t.Errorf("RunsDeduped = %d, want 2 (both resubmissions coalesced)", got)
	}
}

// TestRecoveryTornTail injects a torn final WAL record before recovery: the
// journal truncates it, counts it, and the intact prefix still recovers.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	store := testStore(t)
	scales := map[string]exper.Config{"quick": tinyConfig()}

	mgr1 := NewManager(Options{
		Workers: 1, Store: store, Scales: scales, Journal: openTestJournal(t, dir),
	})
	run, _, err := mgr1.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, run, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mgr1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Tear the WAL tail: half a frame of garbage, as if the process died
	// mid-write.
	walPath := filepath.Join(dir, "wal")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x55, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jr2 := openTestJournal(t, dir)
	if st := jr2.Stats(); st.TornTails != 1 {
		t.Errorf("torn tails = %d, want 1", st.TornTails)
	}
	if got := len(jr2.Recovered()); got != 1 {
		t.Fatalf("recovered %d runs, want the 1 intact one", got)
	}
	if jr2.Recovered()[0].State != StateDone {
		t.Errorf("recovered state = %q, want done", jr2.Recovered()[0].State)
	}
	jr2.Close()
}

// TestJournalFullBackpressure pins the admission behavior when the journal
// budget cannot be reclaimed: submissions fail with ErrJournalFull (a 503
// code) and leave no half-admitted run behind.
func TestJournalFullBackpressure(t *testing.T) {
	dir := t.TempDir()
	// Budget so small even one submit record (~300 bytes of JSON) cannot fit.
	jr, err := OpenRunJournal(JournalOptions{Dir: dir, MaxBytes: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	defer close(gate)
	mgr := NewManager(Options{
		Workers: 1, Store: testStore(t),
		Scales:   map[string]exper.Config{"quick": tinyConfig()},
		Journal:  jr,
		execGate: func(*Run) { <-gate },
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	_, _, err = mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 9})
	if !errors.Is(err, ErrJournalFull) {
		t.Fatalf("submit err = %v, want ErrJournalFull", err)
	}
	if n := mgr.Registry().Len(); n != 0 {
		t.Errorf("registry holds %d runs after a journal-full rejection, want 0", n)
	}
	if statusForCode(CodeJournalFull) != 503 {
		t.Errorf("journal_full must map to 503")
	}
}

// TestShedColdBankUnderPressure pins shed-by-class admission control: past
// the queue-load threshold, submissions needing a cold bank build are shed
// with ErrShedCold while warm-cache submissions keep flowing.
func TestShedColdBankUnderPressure(t *testing.T) {
	// A private store (not the CI-shared cache dir) so femnist is genuinely
	// cold regardless of what other tests have built.
	store, err := core.NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	mgr := NewManager(Options{
		Workers: 1, QueueDepth: 4, Store: store,
		Scales:           map[string]exper.Config{"quick": tinyConfig()},
		ShedColdFraction: 0.5,
		execGate: func(r *Run) {
			if r.Req.Seed == 99 {
				entered <- struct{}{}
				<-gate
			}
		},
	})
	t.Cleanup(func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	submit := func(dataset string, seed uint64) error {
		_, _, err := mgr.Submit(client.RunRequest{Dataset: dataset, Method: "rs", Trials: 2, Seed: seed})
		return err
	}

	// Warm cifar10 by completing one run, then wedge the only worker and
	// fill the queue to the shed threshold (0.5 × 4 = 2 queued).
	warm, _, err := mgr.Submit(client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, warm, StateDone)
	if err := submit("cifar10", 99); err != nil {
		t.Fatal(err)
	}
	<-entered
	for seed := uint64(2); seed <= 3; seed++ {
		if err := submit("cifar10", seed); err != nil {
			t.Fatalf("warm submit below threshold: %v", err)
		}
	}

	// At the threshold: cold femnist sheds, warm cifar10 still flows.
	if err := submit("femnist", 4); !errors.Is(err, ErrShedCold) {
		t.Fatalf("cold submit under pressure err = %v, want ErrShedCold", err)
	}
	if err := submit("cifar10", 5); err != nil {
		t.Errorf("warm submit under pressure rejected: %v", err)
	}
	if got := mgr.shed.Value(); got != 1 {
		t.Errorf("RunsShedCold = %d, want 1", got)
	}
	if statusForCode(CodeShedCold) != 503 {
		t.Error("shed_cold_bank must map to 503")
	}
}

// TestShedAdmitsStoreWarmAfterRestart: a manager booted over a store a
// previous manager filled treats the stored bank as warm before any of its
// own runs resolved it, so a submission for it under pressure is admitted,
// not shed as cold.
func TestShedAdmitsStoreWarmAfterRestart(t *testing.T) {
	dir := t.TempDir()
	scales := map[string]exper.Config{"quick": tinyConfig()}
	req := client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 2, Seed: 1}
	first, err := core.NewBankStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	referenceResult(t, first, scales, req) // trains the bank into the store

	store, err := core.NewBankStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	mgr := NewManager(Options{
		Workers: 1, QueueDepth: 4, Store: store, Scales: scales,
		ShedColdFraction: 0.5,
		execGate: func(r *Run) {
			if r.Req.Seed == 99 {
				entered <- struct{}{}
				<-gate
			}
		},
	})
	t.Cleanup(func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
		store.Close()
	})
	submit := func(seed uint64) error {
		r := req
		r.Seed = seed
		_, _, err := mgr.Submit(r)
		return err
	}
	// Wedge the only worker before it resolves a bank, then fill the queue
	// to the shed threshold (0.5 × 4 = 2 queued).
	if err := submit(99); err != nil {
		t.Fatal(err)
	}
	<-entered
	for seed := uint64(2); seed <= 3; seed++ {
		if err := submit(seed); err != nil {
			t.Fatalf("submit below threshold: %v", err)
		}
	}
	suite, err := mgr.suiteFor(DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	if suite.BankReady("cifar10") {
		t.Fatal("the restarted manager resolved the bank before the pressure check")
	}
	if err := submit(4); err != nil {
		t.Errorf("store-warm submit under pressure after a restart: %v", err)
	}
	if got := mgr.shed.Value(); got != 0 {
		t.Errorf("RunsShedCold = %d, want 0", got)
	}
}

// waitState polls a run until it reaches want (or fails the test after 30s).
func waitState(t *testing.T, r *Run, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := r.State(); st == want {
			return
		} else if st.Terminal() {
			status, _, _ := r.Snapshot()
			t.Fatalf("run %s reached %q (error %q), want %q", r.ID, st, status.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %q (state %q)", r.ID, want, r.State())
}

// runEvents snapshots a run's full event history.
func runEvents(r *Run) []client.Event {
	replay, _, cancel := r.Subscribe()
	cancel()
	return replay
}

// referenceResult executes req on a fresh journal-less manager and returns
// the terminal status — the uninterrupted result a recovered run must match.
func referenceResult(t *testing.T, store *core.BankStore, scales map[string]exper.Config, req client.RunRequest) client.RunStatus {
	t.Helper()
	mgr := NewManager(Options{Workers: 1, Store: store, Scales: scales})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	run, _, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, run, StateDone)
	st, _, _ := run.Snapshot()
	return st
}
