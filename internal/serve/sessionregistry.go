package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// SessionRegistry is the in-memory session store. Unlike runs — which are
// deduplicated by content key because identical submissions compute the same
// answer — sessions are stateful conversations, so every open creates a
// fresh one and the key is reported only for provenance. Sessions idle past
// ttl (no ask/tell/GET) are reaped: their suspended method is unwound and the
// entry dropped, so abandoned external optimizers cannot pin memory. The
// clock is injectable for deterministic reaping tests.
type SessionRegistry struct {
	ttl time.Duration
	max int
	now func() time.Time

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int
	reaped   int64
	opened   int64
}

// NewSessionRegistry creates a registry reaping sessions idle for ttl
// (non-positive = never) holding at most max concurrently (non-positive =
// DefaultMaxSessions).
func NewSessionRegistry(ttl time.Duration, max int) *SessionRegistry {
	if max <= 0 {
		max = DefaultMaxSessions
	}
	return &SessionRegistry{
		ttl:      ttl,
		max:      max,
		now:      time.Now,
		sessions: map[string]*Session{},
	}
}

// Add registers a session, assigning its ID. A full table sweeps first, then
// rejects with too_many_sessions.
func (g *SessionRegistry) Add(s *Session) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.sessions) >= g.max {
		g.sweepLocked()
	}
	if len(g.sessions) >= g.max {
		return codef(CodeTooManySessions, "session table full (%d); close or let idle sessions expire", g.max)
	}
	g.nextID++
	g.opened++
	s.ID = fmt.Sprintf("sess-%06d", g.nextID)
	g.sessions[s.ID] = s
	return nil
}

// Get returns the session with the given ID, touching its idle clock. A
// session found idle past the TTL is reaped on the spot.
func (g *SessionRegistry) Get(id string) (*Session, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.sessions[id]
	if !ok || g.reapLocked(s) {
		return nil, false
	}
	s.touch(g.now())
	return s, true
}

// Remove drops a session entry without closing it.
func (g *SessionRegistry) Remove(id string) (*Session, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.sessions[id]
	if ok {
		delete(g.sessions, id)
	}
	return s, ok
}

// List returns retained sessions, oldest ID first.
func (g *SessionRegistry) List() []*Session {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Session, 0, len(g.sessions))
	for _, s := range g.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of retained sessions.
func (g *SessionRegistry) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.sessions)
}

// Reaped returns how many sessions idle-reaping has closed.
func (g *SessionRegistry) Reaped() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reaped
}

// Opened returns how many sessions were ever opened.
func (g *SessionRegistry) Opened() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.opened
}

// Sweep reaps idle sessions.
func (g *SessionRegistry) Sweep() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sweepLocked()
}

func (g *SessionRegistry) sweepLocked() {
	for _, s := range g.sessions {
		g.reapLocked(s)
	}
}

// reapLocked drops, closes and counts s if it has idled past the TTL.
// Session.Close waits for nothing but a handler mid-request on s.
func (g *SessionRegistry) reapLocked(s *Session) bool {
	if g.ttl <= 0 || g.now().Sub(s.LastUsed()) <= g.ttl {
		return false
	}
	delete(g.sessions, s.ID)
	s.Close()
	g.reaped++
	return true
}

// CloseAll drops and closes every session (daemon shutdown).
func (g *SessionRegistry) CloseAll() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for id, s := range g.sessions {
		delete(g.sessions, id)
		s.Close()
	}
}
