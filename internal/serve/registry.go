package serve

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"noisyeval/internal/exper"
	"noisyeval/pkg/client"
)

// Registry is the in-memory run store: runs in admission order plus a dedup
// index by content-addressed run key. Run IDs come from a monotone counter,
// so the append-only slice ordered by numeric sequence is at once the ID
// index (binary search) and the sorted listing — no request pays for how
// many runs the daemon retains. Terminal runs are retained for ttl after
// they finish (so clients can fetch results and identical submissions keep
// hitting the cached run), then evicted — the daemon's memory stays bounded
// under sustained traffic. Live runs are never evicted.
type Registry struct {
	ttl time.Duration
	now func() time.Time // injectable clock (tests)

	mu     sync.Mutex
	runs   []*Run          // ascending seq
	byKey  map[string]*Run // dedup index by run key
	nextID int
}

// NewRegistry creates a registry retaining terminal runs for ttl
// (non-positive ttl means retain forever).
func NewRegistry(ttl time.Duration) *Registry {
	return &Registry{
		ttl:   ttl,
		now:   time.Now,
		byKey: map[string]*Run{},
	}
}

// runSeq parses the numeric sequence out of a run ID ("run-000042" → 42).
// The %06d padding widens at one million, so IDs order by this number, never
// as strings. An ID the daemon did not mint parses as 0 (never assigned).
func runSeq(id string) int {
	digits, ok := strings.CutPrefix(id, "run-")
	n, err := strconv.Atoi(digits)
	if !ok || err != nil || n < 0 {
		return 0
	}
	return n
}

// searchLocked returns the index of the first run whose seq is ≥ seq.
func (g *Registry) searchLocked(seq int) int {
	return sort.Search(len(g.runs), func(i int) bool { return g.runs[i].seq >= seq })
}

// findLocked returns the index of the run with the given ID.
func (g *Registry) findLocked(id string) (int, bool) {
	seq := runSeq(id)
	for i := g.searchLocked(seq); i < len(g.runs) && g.runs[i].seq == seq; i++ {
		if g.runs[i].ID == id {
			return i, true
		}
	}
	return 0, false
}

// Lookup returns the run that would absorb a submission for key — the dedup
// probe of GetOrCreate without the create half. Failed and cancelled runs do
// not satisfy it, matching GetOrCreate's retry semantics.
func (g *Registry) Lookup(key string) (*Run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lookupLocked(key)
}

func (g *Registry) lookupLocked(key string) (*Run, bool) {
	if r, ok := g.byKey[key]; ok {
		if expired(r, g.cutoff()) {
			g.removeLocked(r)
		} else if st := r.State(); st != StateFailed && st != StateCancelled {
			return r, true
		}
	}
	return nil, false
}

// GetOrCreate returns the live or retained run for key, or creates a fresh
// queued one. created reports whether the caller must schedule the returned
// run. Failed and cancelled runs do not satisfy dedup — an identical
// resubmission retries instead of being pinned to a stale failure.
func (g *Registry) GetOrCreate(key string, req client.RunRequest, treq exper.TuneRequest) (run *Run, created bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok := g.lookupLocked(key); ok {
		return r, false
	}
	g.nextID++
	r := newRun(fmt.Sprintf("run-%06d", g.nextID), key, req, treq, g.now())
	g.runs = append(g.runs, r) // the counter is past every retained seq
	g.byKey[key] = r
	return r, true
}

// Restore re-inserts a recovered run under its original ID, at its place in
// the sequence order, and bumps the ID counter past its numeric suffix, so
// fresh submissions after a restart never collide with recovered IDs. Called
// in journal order, so when two recovered runs share a key (a failed run
// plus its retry) the later one wins the dedup index — the same state live
// traffic would have left.
func (g *Registry) Restore(r *Run) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i, ok := g.findLocked(r.ID); ok {
		g.runs[i] = r
	} else {
		g.runs = slices.Insert(g.runs, g.searchLocked(r.seq+1), r)
	}
	g.byKey[r.Key] = r
	g.nextID = max(g.nextID, r.seq)
}

// Get returns the run with the given ID. An expired run is evicted on the
// spot and reported missing — TTL holds without waiting for the janitor,
// at O(log n) per lookup rather than a full sweep on the read path.
func (g *Registry) Get(id string) (*Run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	i, ok := g.findLocked(id)
	if !ok {
		return nil, false
	}
	r := g.runs[i]
	if expired(r, g.cutoff()) {
		g.removeLocked(r)
		return nil, false
	}
	return r, true
}

// Page visits retained runs oldest first, starting after sequence number
// after (0 = from the oldest), until visit returns false. It is the one walk
// over the registry: list pages stop it when full, journal compaction and the
// janitor's sweep run it to the end. Expired runs it meets are evicted, never
// visited — the lazy TTL rule of Get and Lookup; runs past the stopping point
// are not examined, so a page costs what it reads. visit runs under the
// registry lock and must not call back into the registry.
func (g *Registry) Page(after int, visit func(*Run) bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	cutoff := g.cutoff()
	i := g.searchLocked(after + 1)
	w := i // runs[w:i] is the gap evictions have opened so far
	for more := true; more && i < len(g.runs); i++ {
		r := g.runs[i]
		if expired(r, cutoff) {
			g.dropKeyLocked(r)
			continue
		}
		g.runs[w] = r
		w++
		more = visit(r)
	}
	if w < i {
		g.runs = slices.Delete(g.runs, w, i)
	}
}

// Remove drops a run unconditionally (Submit rolls back a run it could not
// enqueue).
func (g *Registry) Remove(r *Run) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.removeLocked(r)
}

// Len returns the number of retained runs. It does not sweep — counters may
// briefly include expired runs between janitor passes.
func (g *Registry) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.runs)
}

// Sweep evicts terminal runs past their TTL. The manager's janitor calls
// this periodically; Get, GetOrCreate and Page additionally expire the runs
// they touch, so TTL correctness on reads does not depend on the janitor
// cadence while reads stay independent of the registry's size.
func (g *Registry) Sweep() {
	if g.ttl > 0 {
		g.Page(0, func(*Run) bool { return true })
	}
}

// cutoff returns the instant before which a finished run is past retention
// (the zero time — before which nothing finishes — when retaining forever).
func (g *Registry) cutoff() time.Time {
	if g.ttl <= 0 {
		return time.Time{}
	}
	return g.now().Add(-g.ttl)
}

// expired reports whether r is terminal and finished before cutoff.
func expired(r *Run, cutoff time.Time) bool {
	if cutoff.IsZero() {
		return false // retaining forever: spare the run's lock
	}
	fin := r.FinishedAt()
	return !fin.IsZero() && fin.Before(cutoff)
}

func (g *Registry) removeLocked(r *Run) {
	if i, ok := g.findLocked(r.ID); ok && g.runs[i] == r {
		g.runs = slices.Delete(g.runs, i, i+1)
	}
	g.dropKeyLocked(r)
}

// dropKeyLocked clears r's dedup entry unless a later run took the key over.
func (g *Registry) dropKeyLocked(r *Run) {
	if g.byKey[r.Key] == r {
		delete(g.byKey, r.Key)
	}
}
