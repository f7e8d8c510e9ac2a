package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"noisyeval/internal/exper"

	"noisyeval/pkg/client"
)

// rawCall issues one request and returns the response with its body read.
func (ts *testServer) rawCall(t *testing.T, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// checkCompactBody asserts the daemon's wire form of a JSON body: a declared
// Content-Length equal to the body, and compact JSON followed by one newline.
func checkCompactBody(t *testing.T, name string, resp *http.Response, raw []byte) {
	t.Helper()
	if resp.ContentLength != int64(len(raw)) {
		t.Errorf("%s: Content-Length %d, body %d bytes", name, resp.ContentLength, len(raw))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", name, ct)
	}
	doc, ok := bytes.CutSuffix(raw, []byte("\n"))
	if !ok {
		t.Errorf("%s: body does not end in a newline: %q", name, raw)
		return
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, doc); err != nil {
		t.Errorf("%s: body is not JSON: %v (%q)", name, err, raw)
		return
	}
	if !bytes.Equal(compact.Bytes(), doc) {
		t.Errorf("%s: body is not compact:\n%s", name, raw)
	}
}

// TestJSONResponsesCompactWithLength walks every response family of the API —
// submit, dedup, GET, list, session open/ask/tell/get, catalogue, health and
// the error envelope — and checks each body's wire form.
func TestJSONResponsesCompactWithLength(t *testing.T) {
	ts := newTestServer(t, Options{})
	check := func(name string, wantStatus int, method, path, body string) []byte {
		t.Helper()
		resp, raw := ts.rawCall(t, method, path, body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: status %d, want %d (%s)", name, resp.StatusCode, wantStatus, raw)
		}
		checkCompactBody(t, name, resp, raw)
		return raw
	}

	var sub client.RunStatus
	if err := json.Unmarshal(check("submit", http.StatusAccepted, "POST", "/v1/runs", runBody), &sub); err != nil {
		t.Fatal(err)
	}
	check("live or cached get", http.StatusOK, "GET", "/v1/runs/"+sub.ID, "")
	ts.streamEvents(t, sub.ID)
	check("cached get", http.StatusOK, "GET", "/v1/runs/"+sub.ID, "")
	check("dedup", http.StatusOK, "POST", "/v1/runs", runBody)
	check("list", http.StatusOK, "GET", "/v1/runs?state=done&limit=20", "")
	check("trace", http.StatusOK, "GET", "/v1/runs/"+sub.ID+"/trace", "")
	check("methods", http.StatusOK, "GET", "/v1/methods", "")
	check("health", http.StatusOK, "GET", "/healthz", "")
	check("missing run", http.StatusNotFound, "GET", "/v1/runs/run-999999", "")
	check("bad cursor", http.StatusBadRequest, "GET", "/v1/runs?cursor=%21", "")
	check("bad submit", http.StatusBadRequest, "POST", "/v1/runs", `{"dataset":`)

	var sess client.SessionStatus
	if err := json.Unmarshal(check("session open", http.StatusCreated, "POST", "/v1/sessions",
		`{"dataset":"cifar10","method":"rs","noise":{"sample_count":2}}`), &sess); err != nil {
		t.Fatal(err)
	}
	var ask client.AskResponse
	if err := json.Unmarshal(check("ask", http.StatusOK, "POST", "/v1/sessions/"+sess.ID+"/ask", ""), &ask); err != nil {
		t.Fatal(err)
	}
	if len(ask.Asks) == 0 {
		t.Fatalf("ask returned no suggestion: %+v", ask)
	}
	check("tell", http.StatusOK, "POST", "/v1/sessions/"+sess.ID+"/tell", fmt.Sprintf(`{"answers":[{"ask_id":%d}]}`, ask.Asks[0].ID))
	check("session get", http.StatusOK, "GET", "/v1/sessions/"+sess.ID, "")
	check("session list", http.StatusOK, "GET", "/v1/sessions", "")
	check("tell mismatch", http.StatusBadRequest, "POST", "/v1/sessions/"+sess.ID+"/tell", `{"answers":[{"ask_id":999}]}`)
	check("session close", http.StatusOK, "DELETE", "/v1/sessions/"+sess.ID, "")
}

// TestLiveCachedAndDedupBytesEqual pins one encoder for both paths: the
// terminal status rendered live by writeJSON, the cached GET and a dedup hit
// are the same bytes, and the ETag is the strong hash of exactly them.
func TestLiveCachedAndDedupBytesEqual(t *testing.T) {
	ts := newTestServer(t, Options{})
	_, sub := ts.submit(t, runBody)
	ts.streamEvents(t, sub.ID)

	getResp, cached := ts.getRun(t, sub.ID, nil)
	dedupResp, dedup := ts.rawCall(t, "POST", "/v1/runs", runBody)
	if dedupResp.StatusCode != http.StatusOK {
		t.Fatalf("dedup status %d", dedupResp.StatusCode)
	}
	run, ok := ts.mgr.Registry().Get(sub.ID)
	if !ok {
		t.Fatal("run not retained")
	}
	st, _, _ := run.Snapshot()
	live := httptest.NewRecorder()
	writeJSON(live, http.StatusOK, st)

	if !bytes.Equal(cached, dedup) || !bytes.Equal(cached, live.Body.Bytes()) {
		t.Fatalf("bodies differ:\ncached %s\ndedup  %s\nlive   %s", cached, dedup, live.Body.Bytes())
	}
	sum := sha256.Sum256(cached)
	want := `"` + hex.EncodeToString(sum[:16]) + `"`
	if got := getResp.Header.Get("ETag"); got != want {
		t.Errorf("GET ETag %s, want %s", got, want)
	}
	if got := dedupResp.Header.Get("ETag"); got != want {
		t.Errorf("dedup ETag %s, want %s", got, want)
	}
}

// flushCounter is a recorder that counts Flush calls.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestEventReplayOneFlushSameBytes replays a terminal run's events through a
// recorder: the whole history goes out in one flush, and the NDJSON and SSE
// framings are the bytes of json.Marshal per event, as they always were.
func TestEventReplayOneFlushSameBytes(t *testing.T) {
	ts := newTestServer(t, Options{})
	_, sub := ts.submit(t, runBody)
	ts.streamEvents(t, sub.ID)
	run, _ := ts.mgr.Registry().Get(sub.ID)
	events, _, cancel := run.Subscribe()
	cancel()
	if len(events) < 4 {
		t.Fatalf("terminal run has %d events", len(events))
	}
	var ndjson, sse bytes.Buffer
	for _, e := range events {
		data, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&ndjson, "%s\n", data)
		fmt.Fprintf(&sse, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	}

	srv := NewServer(ts.mgr)
	for _, tc := range []struct {
		name, accept string
		want         []byte
	}{
		{"ndjson", "", ndjson.Bytes()},
		{"sse", "text/event-stream", sse.Bytes()},
	} {
		req := httptest.NewRequest(http.MethodGet, "/v1/runs/"+sub.ID+"/events", nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		rec := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		srv.ServeHTTP(rec, req)
		if rec.flushes != 1 {
			t.Errorf("%s: replay flushed %d times, want 1", tc.name, rec.flushes)
		}
		if !bytes.Equal(rec.Body.Bytes(), tc.want) {
			t.Errorf("%s: stream bytes\n%q\nwant\n%q", tc.name, rec.Body.Bytes(), tc.want)
		}
	}
}

// TestUnencodableBodyAnswers500 pins encode-then-write: a value that does not
// marshal answers 500 with the internal error envelope under its
// Content-Length, never its success status with an empty body.
func TestUnencodableBodyAnswers500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"median_err": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var env client.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != CodeInternal {
		t.Fatalf("body %q (%v), want the %q envelope", rec.Body.Bytes(), err, CodeInternal)
	}
	if got, want := rec.Header().Get("Content-Length"), fmt.Sprint(rec.Body.Len()); got != want {
		t.Errorf("Content-Length %s, body %s bytes", got, want)
	}
}

// TestListHealthGrowDecodeAsBefore covers the three bodies the daemon built
// as maps before pkg/client declared them: a /v1/runs page (with and without
// next_cursor, and empty), /healthz (journal and store on, after a grow, and
// both off) and a bank grow. Each literal is the map-built body recorded for
// the same calls (bank dir and uptime masked); the struct-built body may
// order keys differently and drop zero omitempty fields, but must decode
// through pkg/client to the same values.
func TestListHealthGrowDecodeAsBefore(t *testing.T) {
	store := testStore(t)
	jr, err := OpenRunJournal(JournalOptions{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Options{Store: store, Journal: jr})
	uptime := regexp.MustCompile(`"uptime":"[^"]*"`)
	same := func(name string, raw []byte, old string, v, was any) {
		t.Helper()
		body := uptime.ReplaceAll(bytes.ReplaceAll(raw, []byte(store.Dir()), []byte("DIR")), []byte(`"uptime":"U"`))
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("%s: decode %s: %v", name, body, err)
		}
		if err := json.Unmarshal([]byte(old), was); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(v, was) {
			t.Errorf("%s: decodes to %+v, the map-built body to %+v\nbody %s", name, v, was, body)
		}
	}
	get := func(path string) []byte {
		t.Helper()
		resp, raw := ts.rawCall(t, "GET", path, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d (%s)", path, resp.StatusCode, raw)
		}
		return raw
	}

	same("health, empty journal", get("/healthz"),
		`{"banks":{"corrupt_segment":0,"dir":"DIR","enabled":true,"grows":0,"mapped_bytes":0,"mapped_files":0},"journal":{"bytes":8,"enabled":true,"max_bytes":67108864},"runs_active":0,"runs_queued":0,"status":"ok","uptime":"U"}`,
		new(client.Health), new(client.Health))
	for _, seed := range []int{1, 2} {
		_, st := ts.submit(t, fmt.Sprintf(`{"dataset":"cifar10","method":"rs","trials":1,"seed":%d}`, seed))
		ts.streamEvents(t, st.ID)
	}
	same("first page", get("/v1/runs?limit=1"),
		`{"next_cursor":"djE6cnVuLTAwMDAwMQ","runs":[{"id":"run-000001","key":"786254b5faceb5feefe7bcf4d8d9630a6302e46cf09181d83e281b869b572af8","state":"done","dataset":"cifar10","method":"rs","scale":"quick","trials_done":1,"trials_total":1}]}`,
		new(client.RunPage), new(client.RunPage))
	same("last page", get("/v1/runs?limit=1&cursor=djE6cnVuLTAwMDAwMQ"),
		`{"runs":[{"id":"run-000002","key":"0c3cee882a32bbb87e6dd67144b695b9a3f32838dc40294be05182df15415d5b","state":"done","dataset":"cifar10","method":"rs","scale":"quick","trials_done":1,"trials_total":1}]}`,
		new(client.RunPage), new(client.RunPage))
	same("empty page", get("/v1/runs?state=failed"), `{"runs":[]}`, new(client.RunPage), new(client.RunPage))

	suite, err := ts.mgr.suiteFor(DefaultScale)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postGrow(t, ts, suite.BankKeyFor("cifar10"), `{"add":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grow: status %d (%s)", resp.StatusCode, raw)
	}
	same("grow", raw,
		`{"added":2,"dataset":"cifar10","new_key":"5b3609d3ecd188a5fd02425c9f407a0ffa6ff59f572a30d57b6633f2f4ec74b4","old_key":"a47c2fd813a06de51bc8e66878213d3ebcb27c2dae624085c5516b2aded1f0bc","total":8}`,
		new(client.GrowBankResult), new(client.GrowBankResult))
	same("health after a grow", get("/healthz"),
		`{"banks":{"corrupt_segment":0,"dir":"DIR","enabled":true,"grows":1,"mapped_bytes":0,"mapped_files":0},"journal":{"bytes":2473,"enabled":true,"max_bytes":67108864},"runs_active":0,"runs_queued":0,"status":"ok","uptime":"U"}`,
		new(client.Health), new(client.Health))

	bare := NewManager(Options{Scales: map[string]exper.Config{"quick": tinyConfig()}})
	defer bare.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	NewServer(bare).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	same("health, no journal or store", rec.Body.Bytes(),
		`{"banks":{"enabled":false},"journal":{"enabled":false},"runs_active":0,"runs_queued":0,"status":"ok","uptime":"U"}`,
		new(client.Health), new(client.Health))
}
