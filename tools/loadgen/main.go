// Command loadgen is the fault-injection load harness for noisyevald: it
// fires batches of concurrent run submissions at a daemon, records what was
// acknowledged in a state file, and later verifies — typically after the
// daemon was kill -9ed and restarted on its journal — that every
// acknowledged run still exists, reaches a terminal state, and produced the
// same result an uninterrupted daemon would have.
//
//	loadgen -base http://127.0.0.1:8723 -mode submit -n 50 -conc 16 -state runs.json
//	loadgen -base http://127.0.0.1:8723 -mode verify -state runs.json -ref-base http://127.0.0.1:8724
//
// Submit mode sends n quick cifar10 random-search runs of two trials, seeds
// 1000..1000+n-1, and reports submission latency percentiles (p50/p90/p99);
// -max-p99 turns the p99 into a hard bound. Verify mode exits non-zero if
// any recorded run was lost, failed, diverged from the reference daemon's
// result for the identical request, or stopped deduplicating (a resubmission
// must coalesce onto the recorded run ID, not execute twice).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"noisyeval/pkg/client"
)

// The submitted runs: distinct seeds make distinct runs.
const (
	dataset  = "cifar10"
	method   = "rs"
	trials   = 2
	seedBase = 1000
)

// entry is one acknowledged submission in the state file.
type entry struct {
	Request client.RunRequest `json:"request"`
	ID      string            `json:"id"`
	Key     string            `json:"key"`
}

type state struct {
	Entries []entry `json:"entries"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		base      = flag.String("base", "http://127.0.0.1:8723", "daemon base URL")
		mode      = flag.String("mode", "submit", "submit | verify")
		n         = flag.Int("n", 50, "submit: number of distinct runs to submit")
		conc      = flag.Int("conc", 16, "submit: concurrent submitters; verify: concurrent checkers")
		statePath = flag.String("state", "", "state file recording acknowledged submissions (required)")
		timeout   = flag.Duration("timeout", 10*time.Minute, "overall deadline")
		refBase   = flag.String("ref-base", "", "verify: reference daemon; every request re-runs there and results must match exactly")
		maxP99    = flag.Duration("max-p99", 0, "submit: fail if submission latency p99 exceeds this (0 = report only)")
	)
	flag.Parse()
	if *statePath == "" {
		log.Fatal("-state is required")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := client.New(*base)

	switch *mode {
	case "submit":
		if err := submit(ctx, c, *n, *conc, *statePath, *maxP99); err != nil {
			log.Fatal(err)
		}
	case "verify":
		if err := verify(ctx, c, *statePath, *refBase, *conc); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -mode %q", *mode)
	}
}

func submit(ctx context.Context, c *client.Client, n, conc int, statePath string, maxP99 time.Duration) error {
	var (
		mu        sync.Mutex
		entries   = make([]entry, 0, n)
		latencies = make([]time.Duration, 0, n)
		firstErr  error
	)
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		req := client.RunRequest{
			Dataset: dataset, Method: method, Trials: trials, Seed: seedBase + uint64(i),
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(req client.RunRequest) {
			defer wg.Done()
			defer func() { <-sem }()
			start := time.Now()
			st, err := c.SubmitRun(ctx, req)
			elapsed := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("submit seed %d: %w", req.Seed, err)
				}
				return
			}
			entries = append(entries, entry{Request: req, ID: st.ID, Key: st.Key})
			latencies = append(latencies, elapsed)
		}(req)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Request.Seed < entries[j].Request.Seed })

	p := percentiles(latencies)
	log.Printf("submitted %d runs: latency p50=%s p90=%s p99=%s", len(entries), p[0], p[1], p[2])
	if maxP99 > 0 && p[2] > maxP99 {
		return fmt.Errorf("submission p99 %s exceeds bound %s", p[2], maxP99)
	}
	return writeState(statePath, state{Entries: entries})
}

func verify(ctx context.Context, c *client.Client, statePath, refBase string, conc int) error {
	var st state
	raw, err := os.ReadFile(statePath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("state file %s: %w", statePath, err)
	}
	if len(st.Entries) == 0 {
		return fmt.Errorf("state file %s holds no entries", statePath)
	}
	var ref *client.Client
	if refBase != "" {
		ref = client.New(refBase)
	}

	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	errs := make(chan error, len(st.Entries))
	for _, e := range st.Entries {
		wg.Add(1)
		sem <- struct{}{}
		go func(e entry) {
			defer wg.Done()
			defer func() { <-sem }()
			errs <- verifyOne(ctx, c, ref, e)
		}(e)
	}
	wg.Wait()
	close(errs)
	var failed int
	for err := range errs {
		if err != nil {
			failed++
			log.Printf("FAIL: %v", err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed verification", failed, len(st.Entries))
	}
	log.Printf("verified %d runs: none lost, all done, results intact", len(st.Entries))
	return nil
}

// verifyOne checks a single recorded run end to end: still present, reaches
// done, result matches the reference daemon's (if any), and an identical
// resubmission coalesces onto it instead of executing twice.
func verifyOne(ctx context.Context, c, ref *client.Client, e entry) error {
	st, err := waitTerminal(ctx, c, e.ID)
	if err != nil {
		return fmt.Errorf("run %s (seed %d): %w", e.ID, e.Request.Seed, err)
	}
	if st.State != "done" {
		return fmt.Errorf("run %s: state %q (%s), want done", e.ID, st.State, st.Error)
	}
	if st.Result == nil {
		return fmt.Errorf("run %s: done without a result", e.ID)
	}
	resub, err := c.SubmitRun(ctx, e.Request)
	if err != nil {
		return fmt.Errorf("resubmit seed %d: %w", e.Request.Seed, err)
	}
	if resub.ID != e.ID {
		return fmt.Errorf("resubmit seed %d: got fresh run %s, want dedup onto %s (duplicate execution)", e.Request.Seed, resub.ID, e.ID)
	}
	if ref != nil {
		rst, err := ref.SubmitRun(ctx, e.Request)
		if err != nil {
			return fmt.Errorf("reference submit seed %d: %w", e.Request.Seed, err)
		}
		rst, err = waitTerminal(ctx, ref, rst.ID)
		if err != nil {
			return fmt.Errorf("reference run seed %d: %w", e.Request.Seed, err)
		}
		if !reflect.DeepEqual(st.Result, rst.Result) {
			return fmt.Errorf("run %s: result diverged from the uninterrupted reference daemon's", e.ID)
		}
	}
	return nil
}

// waitTerminal polls a run until it reaches a terminal state. Polling (not
// the event stream) keeps verification robust right after a restart, when
// recovered runs may still be queued behind each other.
func waitTerminal(ctx context.Context, c *client.Client, id string) (client.RunStatus, error) {
	for {
		st, err := c.GetRun(ctx, id)
		if err != nil {
			return client.RunStatus{}, err
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return client.RunStatus{}, fmt.Errorf("still %q: %w", st.State, ctx.Err())
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func percentiles(d []time.Duration) [3]time.Duration {
	if len(d) == 0 {
		return [3]time.Duration{}
	}
	sorted := append([]time.Duration(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return [3]time.Duration{at(0.50), at(0.90), at(0.99)}
}

func writeState(path string, st state) error {
	raw, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
