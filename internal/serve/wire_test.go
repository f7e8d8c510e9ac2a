package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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

	var sub RunStatus
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

	var sess SessionStatus
	if err := json.Unmarshal(check("session open", http.StatusCreated, "POST", "/v1/sessions",
		`{"dataset":"cifar10","method":"rs","noise":{"sample_count":2}}`), &sess); err != nil {
		t.Fatal(err)
	}
	var ask AskResponse
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
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != CodeInternal {
		t.Fatalf("body %q (%v), want the %q envelope", rec.Body.Bytes(), err, CodeInternal)
	}
	if got, want := rec.Header().Get("Content-Length"), fmt.Sprint(rec.Body.Len()); got != want {
		t.Errorf("Content-Length %s, body %s bytes", got, want)
	}
}
