package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"noisyeval/pkg/client"
)

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	ID    int
	Event string
	Data  client.Event
}

// streamSSE reads the full SSE stream for a run, optionally resuming from
// lastEventID (-1 = fresh connection).
func (ts *testServer) streamSSE(t *testing.T, id string, lastEventID int) []sseFrame {
	t.Helper()
	req, _ := http.NewRequest("GET", ts.URL+"/v1/runs/"+id+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastEventID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q, want text/event-stream", ct)
	}
	var frames []sseFrame
	frame := sseFrame{ID: -1}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if frame.Event != "" {
				frames = append(frames, frame)
			}
			frame = sseFrame{ID: -1}
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			frame.ID = n
		case strings.HasPrefix(line, "event: "):
			frame.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &frame.Data); err != nil {
				t.Fatalf("bad data line %q: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestSSEResume pins the reconnect contract: frames carry monotonically
// increasing id: lines, and a client reconnecting with Last-Event-ID
// replays exactly the events it missed — no duplicates, no gaps.
func TestSSEResume(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	_, st := ts.submit(t, `{"dataset":"cifar10","method":"rs","trials":3,"seed":41,"noise":{"sample_count":2}}`)
	ts.streamEvents(t, st.ID) // drive to terminal

	full := ts.streamSSE(t, st.ID, -1)
	if len(full) < 3 { // queued, running, trials…, done
		t.Fatalf("only %d SSE frames", len(full))
	}
	for i, f := range full {
		if f.ID != i {
			t.Fatalf("frame %d has id %d; ids must be the event sequence", i, f.ID)
		}
		if f.Data.Seq != f.ID {
			t.Fatalf("frame %d: id %d != payload seq %d", i, f.ID, f.Data.Seq)
		}
	}
	if last := full[len(full)-1]; last.Event != "state" || !State(last.Data.State).Terminal() {
		t.Fatalf("stream did not end on a terminal state event: %+v", last)
	}

	// Reconnect mid-stream: everything after event 1, exactly once.
	resumed := ts.streamSSE(t, st.ID, 1)
	if want := len(full) - 2; len(resumed) != want {
		t.Fatalf("resume from id 1 replayed %d frames, want %d", len(resumed), want)
	}
	if resumed[0].ID != 2 {
		t.Fatalf("resume from id 1 started at id %d, want 2", resumed[0].ID)
	}
	for i, f := range resumed {
		if f.ID != i+2 {
			t.Fatalf("resumed frame %d has id %d, want %d", i, f.ID, i+2)
		}
	}

	// Resuming past the end yields an empty (but well-formed) stream.
	if tail := ts.streamSSE(t, st.ID, full[len(full)-1].ID); len(tail) != 0 {
		t.Fatalf("resume past terminal replayed %d frames, want 0", len(tail))
	}

	// NDJSON honors the header too.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/runs/"+st.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e client.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if e.Seq <= 1 {
			t.Fatalf("NDJSON resume replayed already-delivered seq %d", e.Seq)
		}
		n++
	}
	if want := len(full) - 2; n != want {
		t.Fatalf("NDJSON resume replayed %d events, want %d", n, want)
	}
}

// TestRetryAfterDerivedFromQueue covers the 503 backpressure path: the
// Retry-After header scales with queue depth instead of the old constant 1,
// and the draining path advertises a restart window.
func TestRetryAfterDerivedFromQueue(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 3,
		execGate:   func(*Run) { <-release },
	})
	defer once.Do(func() { close(release) })

	// Occupy the single worker first (wait for it to dequeue into the
	// gate), then fill the whole queue with distinct runs.
	resp0, _ := ts.submit(t, `{"dataset":"cifar10","method":"rs","trials":2,"seed":1}`)
	if resp0.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d", resp0.StatusCode)
	}
	for deadline := time.Now().Add(5 * time.Second); ts.mgr.queued.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the gated run")
		}
	}
	for seed := 2; seed <= 4; seed++ {
		resp, _ := ts.submit(t, fmt.Sprintf(`{"dataset":"cifar10","method":"rs","trials":2,"seed":%d}`, seed))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit %d status = %d", seed, resp.StatusCode)
		}
	}

	resp, _ := ts.submit(t, `{"dataset":"cifar10","method":"rs","trials":2,"seed":99}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit status = %d, want 503", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	// 3 queued runs on 1 worker → 1 + 3/1 = 4 seconds.
	if ra != 4 {
		t.Errorf("Retry-After = %d with 3 queued on 1 worker, want 4", ra)
	}

	// Drain: release the gate and shut down in the background; submissions
	// during the drain answer 503 with the restart window.
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ts.mgr.Shutdown(ctx)
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if ts.mgr.draining() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("manager never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	once.Do(func() { close(release) })

	resp2, _ := ts.submit(t, `{"dataset":"cifar10","method":"rs","trials":2,"seed":100}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit status = %d, want 503", resp2.StatusCode)
	}
	if got := resp2.Header.Get("Retry-After"); got != "30" {
		t.Errorf("draining Retry-After = %q, want 30", got)
	}
}
