// Command servesmoke is the end-to-end exerciser for a running noisyevald,
// built on pkg/client — the same path an external program takes. It checks
// the run lifecycle (submit, stream, result, dedup), the method catalogue,
// and the ask/tell session API: a session driven trial-by-trial over the
// wire must land on exactly the recommendation the server-driven run
// computes for the same inputs.
//
// It also exercises the observability surface: the run's span timeline at
// /v1/runs/{id}/trace must hold the expected phases, and a /metrics scrape
// after the e2e traffic must show non-zero admission and oracle-trial series.
//
// With -restarted it checks a daemon booted again over the cache a previous
// boot filled instead: one quick run must be served from the store — its
// trace holds no bank.build span, and /metrics counts a bank cache hit.
//
// Usage: servesmoke -base http://127.0.0.1:8723 [-restarted]
//
// Exits 0 on success; prints the first failure and exits 1 otherwise.
// tools/serve_smoke.sh boots a daemon and runs this against it, then boots
// it again and runs this with -restarted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"noisyeval/pkg/client"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("servesmoke: ")
	base := flag.String("base", "http://127.0.0.1:8723", "noisyevald base URL")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall budget")
	restarted := flag.Bool("restarted", false, "check a daemon restarted over a filled cache: a quick run must be served from the store")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	check := run
	if *restarted {
		check = runRestarted
	}
	if err := check(ctx, client.New(*base)); err != nil {
		log.Print(err)
		os.Exit(1)
	}
	log.Print("serve smoke passed")
}

func run(ctx context.Context, c *client.Client) error {
	if err := waitHealthy(ctx, c); err != nil {
		return err
	}

	// Method catalogue: fedpop must be discoverable.
	methods, err := c.Methods(ctx)
	if err != nil {
		return fmt.Errorf("methods: %w", err)
	}
	seen := map[string]bool{}
	for _, m := range methods {
		seen[m.Name] = true
	}
	for _, want := range []string{"rs", "sha", "hb", "tpe", "fedpop"} {
		if !seen[want] {
			return fmt.Errorf("methods catalogue missing %q", want)
		}
	}
	log.Printf("methods ok (%d registered)", len(methods))

	// Run lifecycle: submit, stream to terminal, check result, dedup hit.
	req := client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 3, Seed: 11, Noise: client.Noise{SampleCount: 2}}
	st, err := c.SubmitRun(ctx, req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	log.Printf("submitted %s", st.ID)
	run, err := c.WaitRun(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("wait %s: %w", st.ID, err)
	}
	if run.State != "done" || run.Result == nil || run.Result.Best == nil {
		return fmt.Errorf("run %s finished %q (result %v)", st.ID, run.State, run.Result)
	}
	dup, err := c.SubmitRun(ctx, req)
	if err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}
	if dup.ID != st.ID {
		return fmt.Errorf("identical submission got %s, want dedup onto %s", dup.ID, st.ID)
	}
	log.Print("run + dedup ok")

	// The finished run's trace must carry its pipeline phases under a trace ID.
	trace, err := c.Trace(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("trace %s: %w", st.ID, err)
	}
	if trace.TraceID == "" {
		return fmt.Errorf("run %s has no trace ID", st.ID)
	}
	for _, phase := range []string{"queue.wait", "oracle.trials", "response.encode"} {
		if trace.Span(phase) == nil {
			return fmt.Errorf("trace of %s missing %q span (got %d spans)", st.ID, phase, len(trace.Spans))
		}
	}
	log.Printf("trace ok (%s, %d spans)", trace.TraceID, len(trace.Spans))

	// Coded errors reach the client intact.
	if _, err := c.SubmitRun(ctx, client.RunRequest{Dataset: "cifar10", Method: "sgd"}); err == nil {
		return errors.New("unknown method was accepted")
	} else {
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Code != "unknown_method" {
			return fmt.Errorf("unknown method error = %v, want code unknown_method", err)
		}
	}

	// Ask/tell parity: a one-trial run and an externally driven session over
	// the same (dataset, method, noise, seed) must agree exactly.
	preq := client.RunRequest{Dataset: "cifar10", Method: "sha", Trials: 1, Seed: 5, Noise: client.Noise{SampleCount: 2}}
	pst, err := c.SubmitRun(ctx, preq)
	if err != nil {
		return fmt.Errorf("parity submit: %w", err)
	}
	prun, err := c.WaitRun(ctx, pst.ID)
	if err != nil {
		return fmt.Errorf("parity wait: %w", err)
	}
	sess, err := c.OpenSession(ctx, client.SessionRequest{Dataset: "cifar10", Method: "sha", Seed: 5, Noise: client.Noise{SampleCount: 2}})
	if err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	log.Printf("opened %s (pool %d, budget %d rounds)", sess.ID, sess.PoolSize, sess.BudgetRounds)
	final, err := c.DriveSession(ctx, sess.ID, 0)
	if err != nil {
		return fmt.Errorf("drive session: %w", err)
	}
	if final.State != "done" || final.Best == nil {
		return fmt.Errorf("session finished %q with best %v", final.State, final.Best)
	}
	want := prun.Result.Best
	if final.Best.Config != want.Config || final.Best.Rounds != want.Rounds || final.Best.TrueErr != want.TrueErr {
		return fmt.Errorf("session best %+v != run best %+v", *final.Best, *want)
	}
	if len(final.Trials) < 2 {
		return fmt.Errorf("session log has %d trials, want several", len(final.Trials))
	}
	log.Printf("ask/tell parity ok (%d trials, best true err %.4f)", len(final.Trials), final.Best.TrueErr)

	// External session: evaluate a caller-chosen config by index and close.
	ext, err := c.OpenSession(ctx, client.SessionRequest{Dataset: "cifar10", Seed: 3, Noise: client.Noise{SampleCount: 2}})
	if err != nil {
		return fmt.Errorf("open external: %w", err)
	}
	idx := 0
	tr, err := c.Tell(ctx, ext.ID, client.TellRequest{Evaluate: []client.TellEval{{ConfigIndex: &idx}}})
	if err != nil {
		return fmt.Errorf("external tell: %w", err)
	}
	if len(tr.Results) != 1 || tr.SpentRounds == 0 {
		return fmt.Errorf("external tell = %+v", tr)
	}
	if _, err := c.CloseSession(ctx, ext.ID); err != nil {
		return fmt.Errorf("close session: %w", err)
	}
	log.Print("external session ok")

	// Post-e2e /metrics scrape: the traffic above must have moved both the
	// serving-plane admission counter and the hot-path oracle histogram.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, series := range []string{"runs_admitted_total", "oracle_trial_seconds_bucket"} {
		if !seriesNonZero(metrics, series) {
			return fmt.Errorf("/metrics has no non-zero %s sample after e2e traffic", series)
		}
	}
	log.Print("metrics ok")
	return nil
}

// runRestarted checks a daemon booted over the cache an earlier boot filled:
// a quick run no earlier boot ran must open its bank from the store, not
// train it.
func runRestarted(ctx context.Context, c *client.Client) error {
	if err := waitHealthy(ctx, c); err != nil {
		return err
	}
	st, err := c.SubmitRun(ctx, client.RunRequest{Dataset: "cifar10", Method: "rs", Trials: 3, Seed: 12, Noise: client.Noise{SampleCount: 2}})
	if err == nil {
		st, err = c.WaitRun(ctx, st.ID)
	}
	if err != nil || st.State != "done" {
		return fmt.Errorf("quick run after a restart: state %q, err %v", st.State, err)
	}
	trace, err := c.Trace(ctx, st.ID)
	if err != nil || trace.Span("bank.build") != nil {
		return fmt.Errorf("run %s trained its bank after a restart over a filled cache (trace err %v)", st.ID, err)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil || !seriesNonZero(metrics, "bank_cache_hits_total") {
		return fmt.Errorf("/metrics counts no bank cache hit after a restart over a filled cache (err %v)", err)
	}
	log.Print("restarted daemon served the bank from the store")
	return nil
}

// waitHealthy polls /healthz until the daemon answers ok.
func waitHealthy(ctx context.Context, c *client.Client) error {
	// Health must come up before anything else is meaningful.
	var health client.Health
	for {
		h, err := c.GetHealth(ctx)
		if err == nil {
			health = h
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("daemon never became healthy: %w", err)
		case <-time.After(200 * time.Millisecond):
		}
	}
	if health.Status != "ok" {
		return fmt.Errorf("health status %q", health.Status)
	}
	log.Print("healthz ok")
	return nil
}

// seriesNonZero reports whether any sample line of the named series carries a
// value greater than zero. Histogram series match by prefix, so labeled
// bucket lines ({le="..."}) count.
func seriesNonZero(exposition, series string) bool {
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, series) || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil && v > 0 {
			return true
		}
	}
	return false
}
