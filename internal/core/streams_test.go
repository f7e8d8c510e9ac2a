package core

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"noisyeval/internal/hpo"
	"noisyeval/internal/rng"
)

// panicOnTrial is random search that panics in trial `trial`'s method after
// its first batch has been answered; every other trial finishes normally.
// The trial index is read off the method's RNG path ("…/trial-<i>").
type panicOnTrial struct{ trial string }

func (panicOnTrial) Name() string { return "panic-on-trial" }

func (m panicOnTrial) Run(o hpo.Oracle, space hpo.Space, s hpo.Settings, g *rng.RNG) *hpo.History {
	// It asks by config, as a method written against hpo.Oracle alone does.
	pool := o.Pool()
	ci := g.IntN(len(pool))
	obs := o.Evaluate(pool[ci], o.MaxRounds(), "only")
	if strings.HasSuffix(g.Path(), "/"+m.trial) {
		panic("method failure in " + m.trial)
	}
	h := hpo.NewHistory(m.Name(), pool)
	h.Add(ci, o.MaxRounds(), obs, o.TrueError(pool[ci], o.MaxRounds()), o.MaxRounds())
	return h
}

// parkedCount is the free list's current length.
func parkedCount() int {
	parkedStreams.mu.Lock()
	defer parkedStreams.mu.Unlock()
	return len(parkedStreams.list)
}

// emptyMethod returns at once without evaluating anything.
type emptyMethod struct{}

func (emptyMethod) Name() string { return "empty" }
func (emptyMethod) Run(hpo.Oracle, hpo.Space, hpo.Settings, *rng.RNG) *hpo.History {
	return &hpo.History{}
}

// requireIdleParked fails unless every parked stream is idle — one that
// Start accepts — which a stream whose method panicked, or that was closed,
// is not. The probe runs an empty method on each, leaving it idle again.
func requireIdleParked(t *testing.T) {
	t.Helper()
	parkedStreams.mu.Lock()
	defer parkedStreams.mu.Unlock()
	for i, ps := range parkedStreams.list {
		if ps.st.History() != nil {
			t.Fatalf("parked stream %d still holds a History", i)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parked stream %d is not idle: %v", i, r)
				}
			}()
			ps.st.Start(emptyMethod{}, nil, hpo.Space{}, hpo.Settings{}, ps.g)
		}()
		if _, ok := ps.st.Next(); ok || ps.st.History() == nil {
			t.Fatalf("parked stream %d did not run its probe", i)
		}
		ps.st.Release()
	}
}

// TestRunTrialsMethodPanicDropsStream: a method panic propagates out of
// RunTrials, the panicking trial's stream and the streams of trials it
// abandoned mid-run never reach the free list, only the trials that finished
// park theirs, and the next RunTrials in the process is still the reference.
func TestRunTrialsMethodPanicDropsStream(t *testing.T) {
	b, _ := tinyBank(t)
	noise := Noise{SampleCount: 5}
	o, err := NewBankOracle(b, 0, noise.Scheme(), 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	before := parkedCount()
	func() {
		defer func() {
			if r := recover(); r == nil || r != "method failure in trial-3" {
				t.Fatalf("RunTrials recovered %v, want the method's panic", r)
			}
		}()
		tn := Tuner{Method: panicOnTrial{trial: "trial-3"}, Space: hpo.DefaultSpace(), Settings: blockedTestSettings(noise)}
		tn.RunTrials(o, n, rng.New(2).Split("panic"))
		t.Fatal("RunTrials returned past a method panic")
	}()
	// Trials 0–2 finish in the wave trial 3 panics in; 4 and 5 are abandoned.
	if got, want := parkedCount(), max(0, before-n)+3; got != want {
		t.Fatalf("free list holds %d streams after the panic, want %d", got, want)
	}
	requireIdleParked(t)

	tn := Tuner{Method: hpo.Hyperband{}, Space: hpo.DefaultSpace(), Settings: blockedTestSettings(noise)}
	want := referenceTrials(tn, o, n, rng.New(4).Split("after-panic"))
	if got := tn.RunTrials(o, n, rng.New(4).Split("after-panic")); !reflect.DeepEqual(want, got) {
		t.Fatal("RunTrials after a method panic diverges from the reference")
	}
}

// TestRunTrialsParkedStreamsBounded: back-to-back RunTrials calls — some
// wider than the free list — leave at most maxParkedStreams coroutines
// behind, so parking never grows the process's goroutine count past the
// bound.
func TestRunTrialsParkedStreamsBounded(t *testing.T) {
	b, _ := tinyBank(t)
	o, err := NewBankOracle(b, 0, Noise{SampleCount: 4}.Scheme(), 5)
	if err != nil {
		t.Fatal(err)
	}
	tn := Tuner{Method: hpo.RandomSearch{}, Space: hpo.DefaultSpace(), Settings: blockedTestSettings(Noise{})}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		n := 3
		if i%100 == 0 {
			n = maxParkedStreams + 40
		}
		if got := tn.RunTrials(o, n, rng.New(uint64(i)).Split("bounded")); len(got) != n {
			t.Fatalf("call %d returned %d results", i, len(got))
		}
	}
	if p := parkedCount(); p > maxParkedStreams {
		t.Fatalf("free list holds %d streams, bound %d", p, maxParkedStreams)
	}
	if g := runtime.NumGoroutine(); g > baseline+maxParkedStreams {
		t.Fatalf("%d goroutines after 1000 calls, baseline %d + bound %d", g, baseline, maxParkedStreams)
	}
	requireIdleParked(t)
}

// TestRunTrialsConcurrentCallers runs eight RunTrials calls at once — four
// methods, so streams move between methods through the shared free list —
// and checks each against its reference. Run it under -race.
func TestRunTrialsConcurrentCallers(t *testing.T) {
	b, _ := tinyBank(t)
	noise := Noise{SampleCount: 5, Bias: 1}
	o, err := NewBankOracle(b, 0, noise.Scheme(), 13)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"rs", "tpe", "hb", "bohb"}
	type job struct {
		tn   Tuner
		seed uint64
		want []TrialResult
	}
	jobs := make([]job, 8)
	for i := range jobs {
		m, err := hpo.MethodByName(names[i%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{tn: Tuner{Method: m, Space: hpo.DefaultSpace(), Settings: blockedTestSettings(noise)}, seed: uint64(100 + i)}
		jobs[i].want = referenceTrials(jobs[i].tn, o, 10, rng.New(jobs[i].seed).Split("concurrent"))
	}
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				if got := j.tn.RunTrials(o, 10, rng.New(j.seed).Split("concurrent")); !reflect.DeepEqual(j.want, got) {
					t.Errorf("%s (seed %d) diverges from the reference on repetition %d", j.tn.Method.Name(), j.seed, rep)
					return
				}
			}
		}(&jobs[i])
	}
	wg.Wait()
}

// TestParkedStreamsPinNoOracle: once RunTrials returns, nothing it leaves
// behind — parked streams, pooled scheduler buffers, method scratch —
// reaches the oracle, so a GC collects it (and with it any bank only it
// referenced).
func TestParkedStreamsPinNoOracle(t *testing.T) {
	b, _ := tinyBank(t)
	for _, name := range []string{"rs", "tpe", "hb", "bohb"} {
		t.Run(name, func(t *testing.T) {
			m, err := hpo.MethodByName(name)
			if err != nil {
				t.Fatal(err)
			}
			collected := make(chan struct{})
			func() {
				o, err := NewBankOracle(b, 0, Noise{SampleCount: 5}.Scheme(), 21)
				if err != nil {
					t.Fatal(err)
				}
				runtime.AddCleanup(o, func(c chan struct{}) { close(c) }, collected)
				tn := Tuner{Method: m, Space: hpo.DefaultSpace(), Settings: blockedTestSettings(Noise{})}
				if res := tn.RunTrials(o, 12, rng.New(1).Split("pin")); len(res) != 12 {
					t.Fatal("short trial batch")
				}
			}()
			deadline := time.After(10 * time.Second)
			for {
				runtime.GC()
				select {
				case <-collected:
					return
				case <-deadline:
					t.Fatal("the oracle outlived its RunTrials call: something left behind still references it")
				case <-time.After(10 * time.Millisecond):
				}
			}
		})
	}
}

// TestRunTrialsAllocsPerTrial pins the per-trial allocation budget of a warm
// RunTrials call (GOMAXPROCS 1, as AllocsPerRun sets it). Every method
// measures 2.1 allocations per trial — its History and the History's
// backing array, plus each call's results slice and oracle wrapper spread
// over 50 trials — because each recycles its working set through a pool.
// Random search measured 23.7 when every trial built its own coroutine, RNG,
// scheduler buffers and method scratch; its bound of 5 leaves over 2x
// headroom. TPE measured 30.7 that way and 14.1 with a fresh Parzen model
// per trial; its bound of 16 is that second state's. Hyperband and BOHB
// measured 52.1 and 88.9 with per-rung score, selection and label
// allocations and a fresh model; their bound of 5 fails go test as soon as
// one per-rung make comes back, not only a benchmark.
func TestRunTrialsAllocsPerTrial(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of what is put back")
	}
	b, _ := tinyBank(t)
	noise := Noise{SampleCount: 5}
	o, err := NewBankOracle(b, 0, noise.Scheme(), 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for _, c := range []struct {
		method     string
		bound      float64
		bytesBound float64 // 0: not pinned
	}{{"rs", 5, 512}, {"tpe", 16, 0}, {"hb", 5, 1280}, {"bohb", 5, 0}} {
		m, err := hpo.MethodByName(c.method)
		if err != nil {
			t.Fatal(err)
		}
		tn := Tuner{Method: m, Space: hpo.DefaultSpace(), Settings: blockedTestSettings(noise)}
		g := rng.New(6).Split("allocs")
		tn.RunTrials(o, n, g) // warm the free list and the pools
		perTrial := testing.AllocsPerRun(20, func() { tn.RunTrials(o, n, g) }) / n
		t.Logf("%s: %.2f allocs per trial (bound %v)", c.method, perTrial, c.bound)
		if perTrial > c.bound {
			t.Errorf("%s: warm RunTrials allocates %.2f objects per trial, bound %v", c.method, perTrial, c.bound)
		}
		// Bytes, so that a History cannot silently regrow: most of them are
		// its records, 32 bytes an observation.
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			tn.RunTrials(o, n, g)
		}
		runtime.ReadMemStats(&after)
		bytesPerTrial := float64(after.TotalAlloc-before.TotalAlloc) / (runs * n)
		t.Logf("%s: %.0f bytes per trial (bound %v)", c.method, bytesPerTrial, c.bytesBound)
		if c.bytesBound > 0 && bytesPerTrial > c.bytesBound {
			t.Errorf("%s: warm RunTrials allocates %.0f bytes per trial, bound %v", c.method, bytesPerTrial, c.bytesBound)
		}
	}
}
