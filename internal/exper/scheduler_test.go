package exper

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"noisyeval/internal/core"
)

// schedConfig is a sub-Quick miniature so scheduler tests can afford to
// build fresh suites repeatedly (determinism needs independent runs).
func schedConfig() Config {
	cfg := Quick()
	cfg.Scales = map[string]float64{
		"cifar10":       0.06,
		"femnist":       0.02,
		"stackoverflow": 0.002,
		"reddit":        0.0008,
	}
	cfg.BankConfigs = 6
	cfg.MaxRounds = 9
	cfg.K = 4
	cfg.Trials = 4
	cfg.MethodTrials = 2
	cfg.Fig13Configs = 4
	return cfg
}

// schedJobs is the scheduler-test workload: populations only (table1),
// shared-pool banks (figure3/figure7), and decade banks (figure13).
func schedJobs(t *testing.T) []Job {
	t.Helper()
	jobs, err := JobsByID([]string{"table1", "figure3", "figure7", "figure13"})
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func runScheduler(t *testing.T, workers int, store *core.BankStore) (*Suite, []Result) {
	t.Helper()
	s := NewSuite(schedConfig())
	if store != nil {
		s.SetStore(store)
	}
	results, err := Scheduler{Jobs: workers}.Run(s, schedJobs(t))
	if err != nil {
		t.Fatal(err)
	}
	return s, results
}

func TestSchedulerDeterministicAcrossWorkerCounts(t *testing.T) {
	_, serial := runScheduler(t, 1, nil)
	_, parallel := runScheduler(t, 8, nil)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].ID != parallel[i].ID {
			t.Fatalf("result %d: id %q vs %q", i, serial[i].ID, parallel[i].ID)
		}
		if serial[i].Text() != parallel[i].Text() {
			t.Errorf("%s: rendering depends on worker count", serial[i].ID)
		}
		if !reflect.DeepEqual(serial[i].CSVRows, parallel[i].CSVRows) {
			t.Errorf("%s: CSV depends on worker count", serial[i].ID)
		}
	}
}

func TestSchedulerDedupsBankBuilds(t *testing.T) {
	s, results := runScheduler(t, 8, nil)
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	// figure3 and figure7 share the four dataset banks; figure13 adds four
	// cifar10 decade banks. No bank may build twice.
	want := int64(len(DatasetNames) + len(fig13Decades))
	if got := s.BankBuilds(); got != want {
		t.Errorf("banks trained = %d, want %d", got, want)
	}
}

func TestSchedulerWarmStoreBuildsNothing(t *testing.T) {
	store, err := core.NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, cold := runScheduler(t, 4, store)
	warmSuite, warm := runScheduler(t, 4, store)
	if got := warmSuite.BankBuilds(); got != 0 {
		t.Errorf("warm run trained %d banks, want 0", got)
	}
	for i := range cold {
		if cold[i].Text() != warm[i].Text() {
			t.Errorf("%s: warm-cache rendering differs from cold", cold[i].ID)
		}
		if !reflect.DeepEqual(cold[i].CSVRows, warm[i].CSVRows) {
			t.Errorf("%s: warm-cache CSV differs from cold", cold[i].ID)
		}
	}
	if st := store.Stats(); st.Hits == 0 {
		t.Errorf("store stats = %+v, expected hits on the warm run", st)
	}
}

func TestSchedulerCancelsOnFirstError(t *testing.T) {
	var executed atomic.Int32
	fail := Job{ID: "boom", Run: func(*Suite) Result {
		executed.Add(1)
		panic("driver exploded")
	}}
	jobs := []Job{fail}
	for i := 0; i < 5; i++ {
		jobs = append(jobs, Job{ID: "slow", Run: func(*Suite) Result {
			executed.Add(1)
			time.Sleep(20 * time.Millisecond)
			return Result{ID: "slow"}
		}})
	}

	var mu sync.Mutex
	skipped := 0
	sch := Scheduler{Jobs: 1, OnEvent: func(e Event) {
		if e.Kind == TaskSkip {
			mu.Lock()
			skipped++
			mu.Unlock()
		}
	}}
	_, err := sch.Run(NewSuite(schedConfig()), jobs)
	if err == nil {
		t.Fatal("scheduler swallowed the driver failure")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "driver exploded") {
		t.Errorf("error %q does not identify the failing task", err)
	}
	// One worker: the failing job runs first, every pending job is skipped.
	if got := executed.Load(); got != 1 {
		t.Errorf("executed %d jobs after failure, want 1", got)
	}
	if skipped != 5 {
		t.Errorf("skipped %d jobs, want 5", skipped)
	}
}

func TestSchedulerEmitsLifecycleEvents(t *testing.T) {
	var mu sync.Mutex
	kinds := map[string][]EventKind{}
	sch := Scheduler{Jobs: 2, OnEvent: func(e Event) {
		mu.Lock()
		kinds[e.Task] = append(kinds[e.Task], e.Kind)
		mu.Unlock()
	}}
	s := NewSuite(schedConfig())
	jobs, err := JobsByID([]string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sch.Run(s, jobs); err != nil {
		t.Fatal(err)
	}
	// table1 plus its four population artifacts.
	wantTasks := []string{"table1", "pop:cifar10", "pop:femnist", "pop:stackoverflow", "pop:reddit"}
	for _, task := range wantTasks {
		got := kinds[task]
		if len(got) != 2 || got[0] != TaskStart || got[1] != TaskDone {
			t.Errorf("task %s events = %v, want [start done]", task, got)
		}
	}
	if len(kinds) != len(wantTasks) {
		t.Errorf("saw %d tasks, want %d (%v)", len(kinds), len(wantTasks), kinds)
	}
}

func TestSchedulerRunsDriversWithUndeclaredDepsToo(t *testing.T) {
	// A job with no declaration still works: the suite builds banks
	// lazily inside the driver (just without pipelining).
	s := NewSuite(schedConfig())
	jobs := []Job{{ID: "table1", Run: TableDatasets}}
	results, err := Scheduler{Jobs: 2}.Run(s, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != "table1" {
		t.Fatalf("results = %+v", results)
	}
}

// TestSchedulerStartsEachTaskOnce pins the seeding order in Run: with every
// artifact memoised, artifact tasks finish the instant a worker takes them,
// so a queue seeded while workers already drain it could enqueue a driver
// twice — once from the finishing artifact, once from the seeding loop.
func TestSchedulerStartsEachTaskOnce(t *testing.T) {
	s := NewSuite(schedConfig())
	for _, name := range DatasetNames {
		s.Population(name)
	}
	var jobs []Job
	for i := 0; i < 50; i++ {
		jobs = append(jobs, Job{
			ID:   fmt.Sprintf("job%d", i),
			Deps: func(Config) Deps { return Deps{Populations: DatasetNames} },
			Run:  func(*Suite) Result { return Result{} },
		})
	}
	for round := 0; round < 200; round++ {
		var mu sync.Mutex
		starts := map[string]int{}
		sch := Scheduler{Jobs: 8, OnEvent: func(e Event) {
			if e.Kind == TaskStart {
				mu.Lock()
				starts[e.Task]++
				mu.Unlock()
			}
		}}
		if _, err := sch.Run(s, jobs); err != nil {
			t.Fatal(err)
		}
		if want := len(jobs) + len(DatasetNames); len(starts) != want {
			t.Fatalf("round %d: %d tasks started, want %d", round, len(starts), want)
		}
		for task, n := range starts {
			if n != 1 {
				t.Fatalf("round %d: task %s started %d times", round, task, n)
			}
		}
	}
}
