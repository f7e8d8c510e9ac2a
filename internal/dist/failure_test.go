package dist

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/data"
)

// fakeClock is an injectable, manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// failureCluster starts a coordinator on a fake clock with one pending
// 2-shard build, returning the coordinator, the clock, the build's plan
// (for training shards protocol-side), and the result channel of the
// in-flight BuildSharded call.
func failureCluster(t *testing.T) (*Coordinator, *fakeClock, *core.BuildPlan, chan error) {
	t.Helper()
	clock := newFakeClock()
	store, err := core.NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorOptions{
		Store:        store,
		ShardConfigs: 2,
		LeaseTTL:     time.Minute,
		Clock:        clock.Now,
	})
	t.Cleanup(coord.Close)

	pop, opts, seed := testPop(t), testOpts(), uint64(13)
	plan, err := core.NewBuildPlan(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	result := make(chan error, 1)
	go func() {
		_, err := coord.BuildSharded(context.Background(), pop, opts, seed)
		result <- err
	}()
	// Wait for the jobs to be enqueued before tests start leasing.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if pending, leased := coord.jobCounts(); pending+leased >= 2 {
			break
		}
	}
	return coord, clock, plan, result
}

// mustTrain trains one shard range protocol-side.
func mustTrain(t *testing.T, plan *core.BuildPlan, lo, hi int) *core.BankShard {
	t.Helper()
	sh, err := plan.TrainRange(lo, hi, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// waitBuild asserts the in-flight build finishes cleanly.
func waitBuild(t *testing.T, result chan error) {
	t.Helper()
	select {
	case err := <-result:
		if err != nil {
			t.Fatalf("build failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("build did not finish")
	}
}

// TestLeaseExpiryRequeues drives the worker-crash-mid-shard scenario on a
// fake clock: worker A leases a shard and dies; after the lease TTL the
// shard is re-leased to worker B, whose completion finishes the build. A's
// late upload afterwards is acknowledged as a no-op.
func TestLeaseExpiryRequeues(t *testing.T) {
	coord, clock, plan, result := failureCluster(t)

	jobA, ok := coord.Lease("crashing-worker")
	if !ok {
		t.Fatal("no job leased")
	}
	// Within the TTL the shard must NOT be handed out again: the other
	// pending job leases, then the queue runs dry.
	other, ok := coord.Lease("healthy-worker")
	if !ok {
		t.Fatal("second job not leased")
	}
	if other.ID == jobA.ID {
		t.Fatal("live lease was double-assigned")
	}
	if _, ok := coord.Lease("healthy-worker"); ok {
		t.Fatal("leased a job while both shards were held under live leases")
	}
	// The healthy worker finishes its shard inside its TTL, so the later
	// clock jump expires exactly one lease: the crashed worker's.
	if status, err := coord.Complete(other.ID, "healthy-worker", mustTrain(t, plan, other.Lo, other.Hi)); err != nil || status != "ok" {
		t.Fatalf("complete %s = %q, %v", other.ID, status, err)
	}

	// Worker A crashes (never completes). Past the TTL its shard re-leases.
	clock.Advance(2 * time.Minute)
	jobA2, ok := coord.Lease("healthy-worker")
	if !ok {
		t.Fatal("expired lease was not requeued")
	}
	if jobA2.ID != jobA.ID {
		t.Fatalf("requeued job = %s, want %s", jobA2.ID, jobA.ID)
	}
	if jobA2.Attempt != 1 {
		t.Errorf("requeued attempt = %d, want 1", jobA2.Attempt)
	}
	if got := coord.requeued.Value(); got != 1 {
		t.Errorf("requeued counter = %d, want 1", got)
	}

	// Completing the re-leased shard finishes the build.
	if status, err := coord.Complete(jobA2.ID, "healthy-worker", mustTrain(t, plan, jobA2.Lo, jobA2.Hi)); err != nil || status != "ok" {
		t.Fatalf("complete %s = %q, %v", jobA2.ID, status, err)
	}
	waitBuild(t, result)

	// The crashed worker resurrects and uploads its stale shard: the job is
	// gone with the finished build, so the answer is a harmless "stale".
	status, err := coord.Complete(jobA.ID, "crashing-worker", mustTrain(t, plan, jobA.Lo, jobA.Hi))
	if err != nil || status != "stale" {
		t.Errorf("late complete after build = %q, %v; want stale, nil", status, err)
	}
}

// TestDuplicateCompletionIdempotent: two workers racing one shard (a lease
// that expired mid-build, then both finish) must not corrupt the build —
// the second completion is acknowledged as a duplicate and discarded.
func TestDuplicateCompletionIdempotent(t *testing.T) {
	coord, clock, plan, result := failureCluster(t)

	jobA, _ := coord.Lease("slow-worker")
	clock.Advance(2 * time.Minute) // slow-worker's lease expires mid-build

	// The requeued shard sits behind the never-leased one in the FIFO;
	// lease until the fast worker holds the expired shard plus the rest.
	var jobA2 Job
	var others []Job
	for jobA2.ID == "" {
		j, ok := coord.Lease("fast-worker")
		if !ok {
			t.Fatalf("expired shard never re-leased (held %d others)", len(others))
		}
		if j.ID == jobA.ID {
			jobA2 = j
		} else {
			others = append(others, j)
		}
	}
	if jobA2.Attempt != 1 {
		t.Errorf("re-leased attempt = %d, want 1", jobA2.Attempt)
	}

	sh := mustTrain(t, plan, jobA.Lo, jobA.Hi)
	if status, err := coord.Complete(jobA.ID, "fast-worker", sh); err != nil || status != "ok" {
		t.Fatalf("first complete = %q, %v", status, err)
	}
	// The slow worker finishes the same shard late: duplicate, no effect
	// (the build is still live — the other shard is outstanding).
	if status, err := coord.Complete(jobA.ID, "slow-worker", sh); err != nil || status != "duplicate" {
		t.Fatalf("duplicate complete = %q, %v", status, err)
	}
	if got := coord.duplicates.Value(); got != 1 {
		t.Errorf("duplicate counter = %d, want 1", got)
	}
	if got := coord.completed.Value(); got != 1 {
		t.Errorf("completed counter = %d, want 1 (duplicate must not double-count)", got)
	}

	for _, j := range others {
		if status, err := coord.Complete(j.ID, "fast-worker", mustTrain(t, plan, j.Lo, j.Hi)); err != nil || status != "ok" {
			t.Fatalf("complete %s = %q, %v", j.ID, status, err)
		}
	}
	waitBuild(t, result)
}

// TestMalformedShardRequeues: a shard whose range or shape does not match
// the job is rejected, the job goes back on the queue, and a correct
// completion afterwards still succeeds.
func TestMalformedShardRequeues(t *testing.T) {
	coord, _, plan, result := failureCluster(t)

	jobA, _ := coord.Lease("w")
	jobB, _ := coord.Lease("w")

	// Wrong range: trained [lo, hi) of the OTHER job.
	wrong := mustTrain(t, plan, jobB.Lo, jobB.Hi)
	if _, err := coord.Complete(jobA.ID, "w", wrong); err == nil {
		t.Fatal("range-mismatched shard accepted")
	}
	if got := coord.rejected.Value(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	// Truncated shape under the right range.
	bad := &core.BankShard{Lo: jobA.Lo, Hi: jobA.Hi, Diverged: make([]bool, jobA.Hi-jobA.Lo)}
	if _, err := coord.Complete(jobA.ID, "w", bad); err == nil {
		t.Fatal("shape-mismatched shard accepted")
	}

	// The rejected job must be leasable again and completable.
	jobA2, ok := coord.Lease("w2")
	if !ok || jobA2.ID != jobA.ID {
		t.Fatalf("rejected job not requeued (got %v, %v)", jobA2.ID, ok)
	}
	if status, err := coord.Complete(jobA.ID, "w2", mustTrain(t, plan, jobA.Lo, jobA.Hi)); err != nil || status != "ok" {
		t.Fatalf("complete after rejection = %q, %v", status, err)
	}
	if status, err := coord.Complete(jobB.ID, "w", mustTrain(t, plan, jobB.Lo, jobB.Hi)); err != nil || status != "ok" {
		t.Fatalf("complete = %q, %v", status, err)
	}
	waitBuild(t, result)
}

// TestUnknownCompletionIsStale: completing a job that never existed is
// acknowledged without effect.
func TestUnknownCompletionIsStale(t *testing.T) {
	coord, _, plan, result := failureCluster(t)
	sh := mustTrain(t, plan, 0, 1)
	if status, err := coord.Complete("no-such-job", "w", sh); err != nil || status != "stale" {
		t.Errorf("unknown complete = %q, %v; want stale, nil", status, err)
	}
	for {
		j, ok := coord.Lease("w")
		if !ok {
			break
		}
		if status, err := coord.Complete(j.ID, "w", mustTrain(t, plan, j.Lo, j.Hi)); err != nil || status != "ok" {
			t.Fatalf("complete = %q, %v", status, err)
		}
	}
	waitBuild(t, result)
}

// TestAttemptCapFailsBuild: a shard whose leases keep expiring (a
// deterministically failing or always-crashing fleet) must fail the build
// with an error — the contract local BuildBank gives its callers — instead
// of re-queueing forever and hanging every waiter.
func TestAttemptCapFailsBuild(t *testing.T) {
	clock := newFakeClock()
	store, err := core.NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorOptions{
		Store:        store,
		ShardConfigs: 2,
		LeaseTTL:     time.Minute,
		MaxAttempts:  2,
		Clock:        clock.Now,
	})
	t.Cleanup(coord.Close)

	pop, opts, seed := testPop(t), testOpts(), uint64(17)
	result := make(chan error, 1)
	go func() {
		_, err := coord.BuildSharded(context.Background(), pop, opts, seed)
		result <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if pending, leased := coord.jobCounts(); pending+leased >= 2 {
			break
		}
	}

	// Burn through the lease attempts without ever completing.
	for attempt := 0; ; attempt++ {
		if _, ok := coord.Lease("doomed"); !ok {
			break // cap tripped: the build failed and its jobs are gone
		}
		if attempt > 10 {
			t.Fatal("attempt cap never tripped")
		}
		clock.Advance(2 * time.Minute)
	}
	select {
	case err := <-result:
		if err == nil {
			t.Fatal("build with a permanently failing fleet returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("build did not fail after the attempt cap")
	}
	if got := coord.buildsFailed.Value(); got != 1 {
		t.Errorf("builds failed = %d, want 1", got)
	}
	// The failed build's jobs are stale, not retryable.
	if status, err := coord.Complete("anything", "doomed", mustTrainPlan(t, pop, opts, seed, 0, 1)); err != nil || status != "stale" {
		t.Errorf("complete after failed build = %q, %v; want stale", status, err)
	}
}

// TestStallTimeoutFailsBuild: when the entire fleet disappears — no lease,
// no completion, no self-build — the sweeper's stall backstop must fail the
// build so waiters get an error instead of hanging until restart.
func TestStallTimeoutFailsBuild(t *testing.T) {
	clock := newFakeClock()
	store, err := core.NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorOptions{
		Store:        store,
		ShardConfigs: 2,
		LeaseTTL:     time.Minute,
		StallTimeout: 5 * time.Minute,
		Clock:        clock.Now,
	})
	t.Cleanup(coord.Close)

	pop, opts, seed := testPop(t), testOpts(), uint64(23)
	result := make(chan error, 1)
	go func() {
		_, err := coord.BuildSharded(context.Background(), pop, opts, seed)
		result <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if pending, _ := coord.jobCounts(); pending >= 2 {
			break
		}
	}

	// Under the timeout nothing happens.
	clock.Advance(4 * time.Minute)
	coord.Sweep()
	select {
	case err := <-result:
		t.Fatalf("build failed before the stall timeout: %v", err)
	default:
	}

	// Past it, the build fails with a diagnosable error.
	clock.Advance(2 * time.Minute)
	coord.Sweep()
	select {
	case err := <-result:
		if err == nil {
			t.Fatal("stalled build returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stalled build never failed")
	}
	if got := coord.buildsFailed.Value(); got != 1 {
		t.Errorf("builds failed = %d, want 1", got)
	}
}

// mustTrainPlan trains one range from scratch inputs (for tests that never
// built a plan).
func mustTrainPlan(t *testing.T, pop *data.Population, opts core.BuildOptions, seed uint64, lo, hi int) *core.BankShard {
	t.Helper()
	plan, err := core.NewBuildPlan(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	return mustTrain(t, plan, lo, hi)
}

// TestWorkerCrashMidShardEndToEnd is the wire-level version of the crash
// scenario: a real worker whose context dies mid-lease leaves the shard to
// a second real worker after the TTL, and the assembled bank still matches
// a local build byte for byte.
func TestWorkerCrashMidShardEndToEnd(t *testing.T) {
	clock := newFakeClock()
	store, err := core.NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorOptions{
		Store:        store,
		ShardConfigs: 2,
		LeaseTTL:     time.Minute,
		Clock:        clock.Now,
	})
	t.Cleanup(coord.Close)
	mux := http.NewServeMux()
	coord.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	pop, opts, seed := testPop(t), testOpts(), uint64(21)
	result := make(chan error, 1)
	var bank *core.Bank
	go func() {
		var err error
		bank, err = coord.BuildSharded(context.Background(), pop, opts, seed)
		result <- err
	}()

	// Crash: lease one shard at the protocol level and walk away.
	var crashed Job
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if j, ok := coord.Lease("crashed"); ok {
			crashed = j
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no shard to lease")
		}
	}
	clock.Advance(2 * time.Minute) // the crashed worker's lease expires

	// A real worker drains the queue, including the re-leased shard.
	startWorker(t, ts.URL, "survivor")
	waitBuild(t, result)

	local, err := core.BuildBank(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	if core.BankFingerprint(bank) != core.BankFingerprint(local) {
		t.Error("bank after crash/requeue differs from local build")
	}
	if crashed.ID == "" {
		t.Fatal("crash scenario never leased")
	}
	if got := coord.requeued.Value(); got < 1 {
		t.Errorf("requeued counter = %d, want >= 1", got)
	}
}

// TestWorkerStopsAtLeaseExpiry: a worker whose lease expires mid-shard stops
// training within about one configuration instead of training the shard's
// eight to the end, and uploads nothing.
func TestWorkerStopsAtLeaseExpiry(t *testing.T) {
	const ttl = 100 * time.Millisecond
	coord, ts := newTestCluster(t, CoordinatorOptions{ShardConfigs: 8, LeaseTTL: ttl})
	pop, opts, seed := testPop(t), testOpts(), uint64(29)
	opts.NumConfigs, opts.MaxRounds = 8, 243
	plan, err := core.NewBuildPlan(pop, opts, seed)
	if err != nil {
		t.Fatal(err)
	}
	one := time.Duration(math.MaxInt64)
	for rep := 0; rep < 2; rep++ {
		start := time.Now()
		mustTrain(t, plan, 0, 1)
		one = min(one, time.Since(start))
	}
	go coord.BuildSharded(context.Background(), pop, opts, seed)
	var job Job
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if j, ok := coord.Lease("slow"); ok {
			job = j
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no shard to lease")
		}
	}
	w := NewWorker(WorkerOptions{Coordinator: ts.URL, Name: "slow", Workers: 1})
	start := time.Now()
	err = w.process(context.Background(), job)
	took := time.Since(start)
	t.Logf("one configuration trains in %v; lease of %v; process returned after %v: %v", one, ttl, took, err)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("process after the lease expired = %v, want context.DeadlineExceeded", err)
	}
	if took > ttl+3*one {
		t.Errorf("process returned %v after its start; the lease was %v and one configuration takes %v", took, ttl, one)
	}
	if got := coord.completed.Value(); got != 0 {
		t.Errorf("%d shards completed, want 0", got)
	}
}
