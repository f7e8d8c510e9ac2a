package serve

import (
	"encoding/json"
	"io"
	"net/http"

	"noisyeval/pkg/client"
)

// sessionListItem is one row of GET /v1/sessions.
type sessionListItem struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Dataset  string `json:"dataset"`
	Method   string `json:"method"`
	Scale    string `json:"scale"`
	External bool   `json:"external"`
	Trials   int    `json:"trials"`
}

// handleSessionOpen implements POST /v1/sessions.
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	var req client.SessionRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decode request: %v", err)
		return
	}
	sess, err := s.mgr.OpenSession(req)
	if err != nil {
		s.writeAPIError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/sessions/"+sess.ID)
	writeJSON(w, http.StatusCreated, sess.Status())
}

// handleSessionList implements GET /v1/sessions.
func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	sessions := s.mgr.Sessions().List()
	out := make([]sessionListItem, 0, len(sessions))
	for _, sess := range sessions {
		st := sess.Status()
		out = append(out, sessionListItem{
			ID: st.ID, State: st.State,
			Dataset: st.Request.Dataset, Method: st.Request.Method, Scale: st.Request.Scale,
			External: st.External, Trials: len(st.Trials),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

// session resolves {id}, answering 404 for unknown or idle-expired sessions.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	sess, ok := s.mgr.Sessions().Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no session %q (expired or never opened)", r.PathValue("id"))
		return nil, false
	}
	return sess, true
}

// handleSessionGet implements GET /v1/sessions/{id}.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sess.Status())
}

// handleSessionAsk implements POST /v1/sessions/{id}/ask.
func (s *Server) handleSessionAsk(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	resp, err := sess.Ask()
	if err != nil {
		s.writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionTell implements POST /v1/sessions/{id}/tell.
func (s *Server) handleSessionTell(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req client.TellRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "decode request: %v", err)
		return
	}
	if len(req.Answers) == 0 && len(req.Evaluate) == 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "tell with neither answers nor evaluate")
		return
	}
	resp, err := sess.Tell(req)
	if err != nil {
		s.writeAPIError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSessionClose implements DELETE /v1/sessions/{id}.
func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.mgr.Sessions().Remove(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no session %q (expired or never opened)", r.PathValue("id"))
		return
	}
	sess.Close()
	writeJSON(w, http.StatusOK, sess.Status())
}
