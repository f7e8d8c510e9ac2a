package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"noisyeval/internal/core"
	"noisyeval/internal/dist"
	"noisyeval/internal/serve"
)

// TestMetricsCatalogue holds GET /metrics to its catalogue: every # HELP and
// # TYPE line of testdata/metrics_catalogue.txt is served, the dist_* ones
// exactly when a coordinator is mounted (-cluster). The catalogue is what the
// daemon served with -cluster and -journal-dir while each counter was still
// an atomic copied into hand-written views, plus the four coordinator
// counters those views left out: dist_builds_failed_total,
// dist_shards_rejected_total, dist_bank_fetches_total and
// dist_population_fetches_total.
func TestMetricsCatalogue(t *testing.T) {
	raw, err := os.ReadFile("testdata/metrics_catalogue.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for _, cluster := range []bool{false, true} {
		name := "standalone"
		if cluster {
			name = "cluster"
		}
		t.Run(name, func(t *testing.T) {
			served := scrape(t, cluster)
			for _, line := range want {
				isDist := strings.HasPrefix(strings.Fields(line)[2], "dist_")
				if served[line] != (cluster || !isDist) {
					t.Errorf("served %t, want %t: %q", served[line], cluster || !isDist, line)
				}
			}
		})
	}
}

// scrape boots the daemon's handler the way main wires it (bank store and
// run journal on, a coordinator mounted when cluster) and returns the set of
// # HELP / # TYPE lines its /metrics serves.
func scrape(t *testing.T, cluster bool) map[string]bool {
	t.Helper()
	store, err := core.NewBankStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jr, err := serve.OpenRunJournal(serve.JournalOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	mgr := serve.NewManager(serve.Options{Store: store, Journal: jr})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	})
	d := serve.NewDaemon("127.0.0.1:0", mgr)
	if cluster {
		coord := dist.NewCoordinator(dist.CoordinatorOptions{Store: store})
		t.Cleanup(coord.Close)
		mountCoordinator(d, coord)
	}
	rec := httptest.NewRecorder()
	d.Server().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	served := map[string]bool{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "# ") {
			served[line] = true
		}
	}
	return served
}
