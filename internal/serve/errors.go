package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"noisyeval/pkg/client"
)

// Machine-readable error codes of the v1 error envelope. Every non-2xx
// response on /v1/* carries client.ErrorEnvelope with one of these
// codes, so clients branch on the code and humans read the message.
const (
	CodeBadRequest      = "bad_request"       // malformed JSON or invalid field
	CodeUnknownMethod   = "unknown_method"    // method not in hpo.Methods()
	CodeUnknownDataset  = "unknown_dataset"   // dataset not in exper.DatasetNames
	CodeUnknownScale    = "unknown_scale"     // scale the manager does not serve
	CodeInvalidTrials   = "invalid_trials"    // trial count outside [1, MaxTrials]
	CodeInvalidNoise    = "invalid_noise"     // noise parameter out of range
	CodeInvalidCursor   = "invalid_cursor"    // unparseable pagination cursor
	CodeInvalidState    = "invalid_state"     // unknown ?state= filter value
	CodeNotFound        = "not_found"         // no such run/session (or expired)
	CodeQueueFull       = "queue_full"        // run queue at capacity (503)
	CodeJournalFull     = "journal_full"      // durability journal budget exhausted (503)
	CodeShedCold        = "shed_cold_bank"    // cold-bank submission shed under load (503)
	CodeShuttingDown    = "shutting_down"     // graceful drain in progress (503)
	CodeTooManySessions = "too_many_sessions" // session table at capacity (503)
	CodeSessionTerminal = "session_terminal"  // ask/tell on a finished session (409)
	CodeExternalSession = "external_session"  // ask (or answers) on a session with no method
	CodeNoPendingAsk    = "no_pending_ask"    // tell with nothing asked
	CodeAskMismatch     = "ask_mismatch"      // tell answering the wrong ask ID
	CodeBudgetExhausted = "budget_exhausted"  // evaluation would exceed the round budget (409)
	CodeInternal        = "internal"          // unexpected server-side failure (500)
)

// apiError is an error carrying its envelope code. Validation and session
// logic return these; writeAPIError recovers the code through errors.As even
// after wrapping (Manager.Submit wraps with ErrBadRequest via %w).
type apiError struct {
	code string
	msg  string
}

func (e *apiError) Error() string { return e.msg }

// codef builds an apiError.
func codef(code, format string, args ...any) *apiError {
	return &apiError{code: code, msg: fmt.Sprintf(format, args...)}
}

// statusForCode maps envelope codes to HTTP status.
func statusForCode(code string) int {
	switch code {
	case CodeNotFound:
		return http.StatusNotFound
	case CodeQueueFull, CodeJournalFull, CodeShedCold, CodeShuttingDown, CodeTooManySessions:
		return http.StatusServiceUnavailable
	case CodeSessionTerminal, CodeBudgetExhausted:
		return http.StatusConflict
	case CodeInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// writeError emits one enveloped error with an explicit code.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, client.ErrorEnvelope{Error: client.ErrorInfo{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// writeAPIError maps a manager/session-layer error onto the wire: coded
// errors keep their code (and its status), the manager's sentinel errors map
// to their family code, and anything else is an internal 500. 503s carry
// Retry-After from the manager's live state.
func (s *Server) writeAPIError(w http.ResponseWriter, err error) {
	code := CodeInternal
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		code = ae.code
	case errors.Is(err, ErrBadRequest):
		code = CodeBadRequest
	case errors.Is(err, ErrQueueFull):
		code = CodeQueueFull
	case errors.Is(err, ErrJournalFull):
		code = CodeJournalFull
	case errors.Is(err, ErrShedCold):
		code = CodeShedCold
	case errors.Is(err, ErrShuttingDown):
		code = CodeShuttingDown
	}
	status := statusForCode(code)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.mgr.RetryAfterSeconds()))
	}
	writeError(w, status, code, "%s", err.Error())
}
