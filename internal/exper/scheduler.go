package exper

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Deps declares the expensive artifacts one driver consumes, so the
// Scheduler can build each artifact exactly once, on demand, pipelined with
// the drivers that are already runnable.
type Deps struct {
	// Populations lists datasets whose generated population is needed
	// (table1 reads populations without training banks).
	Populations []string
	// Banks lists datasets whose shared-pool config bank is needed.
	Banks []string
	// DecadeBanks lists the Figure-13 per-decade banks needed.
	DecadeBanks []DecadeDep
}

// DecadeDep names one (dataset, server-lr decades) Figure-13 bank.
type DecadeDep struct {
	Dataset string
	Decades int
}

// Job is one schedulable figure/table driver: its id, the artifacts it
// needs (as a function of the suite config, since e.g. Figure 13's decade
// banks depend on Config.Fig13Datasets), and the driver itself.
type Job struct {
	ID   string
	Deps func(Config) Deps
	Run  func(*Suite) Result
}

// EventKind classifies scheduler progress events.
type EventKind int

const (
	// TaskStart fires when a task begins executing on a worker.
	TaskStart EventKind = iota
	// TaskDone fires when a task completes successfully.
	TaskDone
	// TaskError fires when a task fails (the run is being cancelled).
	TaskError
	// TaskSkip fires when a task is abandoned because the run was
	// cancelled by an earlier failure.
	TaskSkip
)

// Event is one scheduler progress notification. Task is either a driver id
// ("figure3") or an artifact key ("bank:cifar10", "pop:reddit",
// "decades:cifar10:3").
type Event struct {
	Task    string
	Kind    EventKind
	Elapsed time.Duration
	Err     error
}

// Scheduler runs figure/table drivers concurrently on a bounded worker
// pool. Every declared artifact (bank, population) becomes its own task,
// deduplicated across drivers, so bank construction is demand-driven and
// overlaps driver execution: a driver starts the moment its own deps are
// ready, regardless of other banks still training. Bank tasks execute
// through the suite's core.BankBuilder, so in cluster mode (cmd/figures
// -cluster-addr) each "bank:*" task fans out into dist shard jobs while
// the scheduler's own pool keeps other drivers moving. The first failing
// task cancels everything not yet started; in-flight tasks finish. Results
// are independent of the worker count — every driver derives its
// randomness from the suite seed, never from execution order.
type Scheduler struct {
	// Jobs bounds concurrent tasks (0 = GOMAXPROCS). Note bank builds are
	// additionally parallel internally (Config.Workers).
	Jobs int
	// OnEvent, when set, receives progress events (called from worker
	// goroutines; must be safe for concurrent use).
	OnEvent func(Event)
}

// task is one node of the dependency graph: artifacts have no
// prerequisites, drivers wait on their artifacts.
type task struct {
	key        string
	run        func() error
	pending    atomic.Int32
	dependents []*task
}

// Run executes jobs against the suite, returning results in job order.
// On failure the first error is returned; results of drivers that completed
// before cancellation are still populated (use the error to decide whether
// the slice is complete).
func (sch Scheduler) Run(s *Suite, jobs []Job) ([]Result, error) {
	workers := sch.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var tasks []*task
	artifacts := map[string]*task{}
	artifactTask := func(key string, build func()) *task {
		if t, ok := artifacts[key]; ok {
			return t
		}
		t := &task{key: key, run: func() error { return capturePanic(key, build) }}
		artifacts[key] = t
		tasks = append(tasks, t)
		return t
	}

	results := make([]Result, len(jobs))
	for i, j := range jobs {
		jt := &task{key: j.ID, run: func() error {
			return capturePanic(j.ID, func() { results[i] = j.Run(s) })
		}}
		var deps Deps
		if j.Deps != nil {
			deps = j.Deps(s.Cfg)
		}
		seen := map[string]bool{}
		link := func(dt *task) {
			if seen[dt.key] {
				return
			}
			seen[dt.key] = true
			dt.dependents = append(dt.dependents, jt)
			jt.pending.Add(1)
		}
		for _, name := range deps.Populations {
			link(artifactTask("pop:"+name, func() { s.Population(name) }))
		}
		for _, name := range deps.Banks {
			link(artifactTask("bank:"+name, func() { s.Bank(name) }))
		}
		for _, dd := range deps.DecadeBanks {
			key := fmt.Sprintf("decades:%s:%d", dd.Dataset, dd.Decades)
			link(artifactTask(key, func() { s.DecadeBank(dd.Dataset, dd.Decades) }))
		}
		tasks = append(tasks, jt)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	// Buffered to the full graph so finishing a task never blocks on the
	// queue (a worker enqueues newly unblocked dependents inline).
	ready := make(chan *task, len(tasks))
	wg.Add(len(tasks))
	finish := func(t *task, err error) {
		if err != nil {
			errOnce.Do(func() {
				firstErr = err
				cancel()
			})
		}
		for _, d := range t.dependents {
			if d.pending.Add(-1) == 0 {
				ready <- d
			}
		}
		wg.Done()
	}
	emit := func(e Event) {
		if sch.OnEvent != nil {
			sch.OnEvent(e)
		}
	}

	// Seed the queue before any worker exists. pending only ever reaches
	// zero once per task while nothing runs; with workers already draining,
	// an artifact that finishes mid-loop would enqueue its dependent from
	// finish and this loop would then see pending == 0 and enqueue it again
	// (run twice: a negative WaitGroup counter). The buffer holds the whole
	// graph, so seeding first cannot block.
	for _, t := range tasks {
		if t.pending.Load() == 0 {
			ready <- t
		}
	}
	for w := 0; w < workers; w++ {
		go func() {
			for t := range ready {
				if ctx.Err() != nil {
					// Cancelled: drain without running so dependents
					// unblock and the graph empties.
					emit(Event{Task: t.key, Kind: TaskSkip})
					finish(t, nil)
					continue
				}
				emit(Event{Task: t.key, Kind: TaskStart})
				start := time.Now()
				err := t.run()
				elapsed := time.Since(start)
				if err != nil {
					emit(Event{Task: t.key, Kind: TaskError, Elapsed: elapsed, Err: err})
				} else {
					emit(Event{Task: t.key, Kind: TaskDone, Elapsed: elapsed})
				}
				finish(t, err)
			}
		}()
	}

	wg.Wait()
	close(ready)
	return results, firstErr
}

// capturePanic runs fn, converting a panic (how drivers and Suite accessors
// report bank failures) into an error the scheduler can cancel on.
func capturePanic(key string, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exper: task %s: %v", key, r)
		}
	}()
	fn()
	return nil
}
