package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func postGrow(t *testing.T, ts *testServer, key, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/banks/"+key+"/grow", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

func TestBankGrowEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{})

	// A run resolves the dataset's bank, making it growable.
	resp, st := ts.submit(t, runBody)
	resp.Body.Close()
	ts.streamEvents(t, st.ID)

	suite, err := ts.mgr.suiteFor("quick")
	if err != nil {
		t.Fatal(err)
	}
	oldKey := suite.BankKeyFor("cifar10")

	// Validation first: a zero add and an unknown key must not grow.
	if resp, _ := postGrow(t, ts, oldKey, `{"add":0}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("add=0: status %d", resp.StatusCode)
	}
	if resp, _ := postGrow(t, ts, "no-such-bank", `{"add":1}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: status %d", resp.StatusCode)
	}

	resp2, raw := postGrow(t, ts, oldKey, `{"add":2}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("grow: status %d: %s", resp2.StatusCode, raw)
	}
	var res struct {
		Dataset string `json:"dataset"`
		OldKey  string `json:"old_key"`
		NewKey  string `json:"new_key"`
		Added   int    `json:"added"`
		Total   int    `json:"total"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	if res.Dataset != "cifar10" || res.Added != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.OldKey != oldKey || res.NewKey == oldKey || res.NewKey == "" {
		t.Fatalf("content address did not advance: %+v", res)
	}
	if got := suite.BankKeyFor("cifar10"); got != res.NewKey {
		t.Fatalf("suite serves key %s, grow reported %s", got, res.NewKey)
	}
	if got := len(suite.Bank("cifar10").Configs); got != res.Total {
		t.Fatalf("served bank has %d configs, grow reported %d", got, res.Total)
	}

	// The old address is spent: a second grow must use the new one.
	if resp, _ := postGrow(t, ts, oldKey, `{"add":1}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("grow via old key: status %d", resp.StatusCode)
	}
	if resp, _ := postGrow(t, ts, res.NewKey, `{"add":1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("grow via new key: status %d", resp.StatusCode)
	}

	// Counters and health surface the growth.
	metrics := ts.scrapeMetrics(t)
	for _, series := range []string{"\nbank_grow_total 2\n", "\nbank_mapped_files ", "\nbank_mapped_bytes ", "\nbank_cache_corrupt_segment_total "} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(series))
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Banks struct {
			Enabled bool  `json:"enabled"`
			Grows   int64 `json:"grows"`
		} `json:"banks"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.Banks.Enabled || health.Banks.Grows != 2 {
		t.Errorf("healthz banks block = %+v", health.Banks)
	}
}
