// Package client is the Go client for the noisyevald v1 API: run
// submission with event streaming, and ask/tell tuner sessions that open the
// daemon's bank oracle to external optimizers.
//
// The types here are the one declaration of the v1 wire format: the daemon
// (internal/serve) encodes and decodes these same structs, so a body cannot
// drift between server and client. The package imports only the standard
// library, so external programs depend on nothing else. Every non-2xx
// response decodes into *APIError carrying the server's machine-readable
// error code (the ErrorEnvelope body).
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// HParams is a configuration's hyperparameter vector. Fields marshal under
// their Go names; the field set is internal/fl.HParams's, so the daemon
// converts between the two with a struct conversion.
type HParams struct {
	ServerLR       float64
	Beta1          float64
	Beta2          float64
	LRDecay        float64
	ClientLR       float64
	ClientMomentum float64
	WeightDecay    float64
	BatchSize      int
	Epochs         int
}

// Noise is the evaluation-noise setting of a run or session (zero = the
// noiseless reference). Its field set is internal/core.Noise's.
type Noise struct {
	// SampleCount is the raw number of validation clients per evaluation
	// (0 = use SampleFraction; both 0 = full pool).
	SampleCount int `json:"sample_count,omitempty"`
	// SampleFraction is the evaluated client fraction in [0, 1].
	SampleFraction float64 `json:"sample_fraction,omitempty"`
	// Bias is the systems-heterogeneity exponent b (≥ 0).
	Bias float64 `json:"bias,omitempty"`
	// Epsilon is the total DP budget (0 = non-private).
	Epsilon float64 `json:"epsilon,omitempty"`
	// HeterogeneityP selects the bank's iid-repartition fraction p
	// (recorded partitions: 0, 0.5, 1).
	HeterogeneityP float64 `json:"heterogeneity_p,omitempty"`
	// Uniform forces uniform (non-weighted) aggregation.
	Uniform bool `json:"uniform,omitempty"`
}

// RunRequest is the body of POST /v1/runs: one tuning job. The daemon
// normalizes it (lower case, canonical method name, defaults filled) before
// keying, so spelling variants of one run deduplicate.
type RunRequest struct {
	// Dataset is one of cifar10, femnist, stackoverflow, reddit.
	Dataset string `json:"dataset"`
	// Method is a tuning-method name from GET /v1/methods (aliases accepted).
	Method string `json:"method"`
	// Scale selects the suite configuration (default "quick").
	Scale string `json:"scale,omitempty"`
	// Trials is the bootstrap trial count (default 8, at most 512).
	Trials int `json:"trials,omitempty"`
	// Seed drives oracle subsampling and trial RNG streams (default 1).
	Seed  uint64 `json:"seed,omitempty"`
	Noise Noise  `json:"noise,omitempty"`
}

// BestConfig is a completed run's recommended configuration.
type BestConfig struct {
	Config  HParams `json:"config"`
	TrueErr float64 `json:"true_err"`
	Rounds  int     `json:"rounds"`
}

// RunResult is a completed run's outcome.
type RunResult struct {
	MedianErr    float64     `json:"median_err"`
	Q1Err        float64     `json:"q1_err"`
	Q3Err        float64     `json:"q3_err"`
	MeanErr      float64     `json:"mean_err"`
	Finals       []float64   `json:"finals"`
	BudgetRounds int         `json:"budget_rounds"`
	BankKey      string      `json:"bank_key"`
	Best         *BestConfig `json:"best,omitempty"`
}

// RunStatus is the body of GET /v1/runs/{id} (and of a submission's answer).
// State is one of queued, running, done, failed, cancelled.
type RunStatus struct {
	ID          string     `json:"id"`
	Key         string     `json:"key"`
	State       string     `json:"state"`
	Request     RunRequest `json:"request"`
	CreatedAt   string     `json:"created_at"`
	StartedAt   string     `json:"started_at,omitempty"`
	FinishedAt  string     `json:"finished_at,omitempty"`
	TrialsDone  int        `json:"trials_done"`
	TrialsTotal int        `json:"trials_total"`
	Result      *RunResult `json:"result,omitempty"`
	Error       string     `json:"error,omitempty"`
}

// Terminal reports whether the run state admits no further transitions.
func (s RunStatus) Terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "cancelled"
}

// TrialInfo is the payload of a "trial" event. It is a nested object (not
// flattened into Event) so its fields never carry omitempty: trial index 0
// and a 0.0 final error serialize explicitly instead of vanishing.
type TrialInfo struct {
	Index     int     `json:"index"` // which bootstrap trial finished (0-based)
	Completed int     `json:"completed"`
	Total     int     `json:"total"`
	FinalErr  float64 `json:"final_err"`
}

// Event is one progress notification on a run's event stream
// (GET /v1/runs/{id}/events: one NDJSON line, or one SSE frame's data).
// Streams replay the history from event 0 and end after the terminal event.
type Event struct {
	Seq   int        `json:"seq"`
	Type  string     `json:"type"` // "state" | "trial"
	State string     `json:"state,omitempty"`
	Trial *TrialInfo `json:"trial,omitempty"` // set when Type == "trial"
	// Error carries the failure reason on the terminal "state" event of a
	// failed or cancelled run.
	Error string `json:"error,omitempty"`
}

// RunListItem is one row of GET /v1/runs.
type RunListItem struct {
	ID         string `json:"id"`
	Key        string `json:"key"`
	State      string `json:"state"`
	Dataset    string `json:"dataset"`
	Method     string `json:"method"`
	Scale      string `json:"scale"`
	TrialsDone int    `json:"trials_done"`
	Trials     int    `json:"trials_total"`
}

// RunPage is the body of GET /v1/runs; a non-empty NextCursor resumes the
// walk, and the last page omits it.
type RunPage struct {
	Runs       []RunListItem `json:"runs"`
	NextCursor string        `json:"next_cursor,omitempty"`
}

// ListRunsOptions filters and paginates ListRuns.
type ListRunsOptions struct {
	State  string
	Limit  int
	Cursor string
}

// MethodInfo is one row of GET /v1/methods. It mirrors internal/hpo's
// MethodInfo, which the daemon encodes: hpo is a leaf package and does not
// import this one.
type MethodInfo struct {
	Name        string            `json:"name"`
	Display     string            `json:"display"`
	Aliases     []string          `json:"aliases,omitempty"`
	Description string            `json:"description"`
	Settings    map[string]string `json:"settings,omitempty"`
}

// SessionRequest is the body of POST /v1/sessions: one tuner session bound
// to a (bank, noise model, seed, budget) tuple. An empty or "external"
// Method opens an externally driven session: no built-in tuner, the caller
// proposes configurations through tell.
type SessionRequest struct {
	Dataset string `json:"dataset"`
	Method  string `json:"method,omitempty"`
	Scale   string `json:"scale,omitempty"`
	// Seed drives oracle subsampling and the method's RNG stream
	// (default 1). A session with seed S and trial T evaluates exactly like
	// bootstrap trial T of a run submitted with seed S.
	Seed uint64 `json:"seed,omitempty"`
	// Trial selects which bootstrap trial's evaluation stream the session
	// replays (default 0, the trial whose recommendation a run reports as
	// best).
	Trial int   `json:"trial,omitempty"`
	Noise Noise `json:"noise,omitempty"`
}

// SessionTrial is one completed evaluation in a session's log, addressed by
// pool index.
type SessionTrial struct {
	// Index is the position in the session's trial log.
	Index int `json:"index"`
	// Source is "ask" for answered method suggestions, "tell" for
	// caller-proposed evaluations.
	Source string `json:"source"`
	// AskID echoes the answered ask for Source == "ask".
	AskID       *int    `json:"ask_id,omitempty"`
	ConfigIndex int     `json:"config_index"`
	Config      HParams `json:"config"`
	// Rounds is the checkpoint fidelity actually evaluated.
	Rounds int `json:"rounds"`
	// Observed is the (pre-DP) noisy error the oracle returned — or, for an
	// ask answered with a caller-supplied value, that value.
	Observed float64 `json:"observed"`
	// TrueErr is the noise-free full validation error (reporting only).
	TrueErr float64 `json:"true_err"`
	// EvalID names the evaluation cohort used.
	EvalID string `json:"eval_id"`
}

// SessionStatus is the body of GET /v1/sessions/{id}. State is one of
// active, done, failed, closed.
type SessionStatus struct {
	ID        string         `json:"id"`
	Key       string         `json:"key"`
	State     string         `json:"state"`
	Request   SessionRequest `json:"request"`
	CreatedAt string         `json:"created_at"`
	// External reports whether the session is externally driven (no ask).
	External bool `json:"external"`
	// Asked / Told count protocol progress; Evals counts evaluate items.
	Asked int `json:"asked"`
	Told  int `json:"told"`
	Evals int `json:"evals"`
	// SpentRounds / BudgetRounds track the evaluate-path round budget.
	SpentRounds  int `json:"spent_rounds"`
	BudgetRounds int `json:"budget_rounds"`
	// Bank geometry an external tuner needs to drive the oracle.
	BankKey     string `json:"bank_key"`
	PoolSize    int    `json:"pool_size"`
	MaxRounds   int    `json:"max_rounds"`
	Checkpoints []int  `json:"checkpoints"`
	// Trials is the session's evaluation log, oldest first.
	Trials []SessionTrial `json:"trials"`
	// Best is the best-so-far: while active, the lowest-observed
	// highest-fidelity trial; once done, the driven method's own final
	// recommendation (identical to a run's best for the same inputs).
	Best  *SessionTrial `json:"best,omitempty"`
	Error string        `json:"error,omitempty"`
}

// AskItem is one suggested evaluation.
type AskItem struct {
	ID          int     `json:"id"`
	ConfigIndex int     `json:"config_index"`
	Config      HParams `json:"config"`
	Rounds      int     `json:"rounds"`
	EvalID      string  `json:"eval_id"`
}

// AskResponse is the body of POST /v1/sessions/{id}/ask.
type AskResponse struct {
	// Asks holds the pending suggestion (empty when the method is done).
	// Asks are sequential: one pending at a time, re-asked idempotently.
	Asks  []AskItem `json:"asks"`
	Done  bool      `json:"done"`
	State string    `json:"state"`
}

// TellAnswer answers one pending ask; nil Observed asks the server to
// evaluate the suggestion on its bank oracle.
type TellAnswer struct {
	AskID    int      `json:"ask_id"`
	Observed *float64 `json:"observed,omitempty"`
}

// TellEval proposes one evaluation by pool index, or by parameter vector
// snapped to the bank's config pool.
type TellEval struct {
	ConfigIndex *int     `json:"config_index,omitempty"`
	Config      *HParams `json:"config,omitempty"`
	// Rounds is the requested fidelity (default: the bank's max; snapped
	// down to a recorded checkpoint).
	Rounds int `json:"rounds,omitempty"`
	// EvalID names the evaluation cohort (default "tell-<n>"; reuse an ID to
	// share a cohort across evaluations, as SHA rungs do).
	EvalID string `json:"eval_id,omitempty"`
}

// TellRequest is the body of POST /v1/sessions/{id}/tell.
type TellRequest struct {
	Answers  []TellAnswer `json:"answers,omitempty"`
	Evaluate []TellEval   `json:"evaluate,omitempty"`
}

// TellResponse reports what a tell accomplished.
type TellResponse struct {
	// Results holds one entry per evaluate item (answers echo no result:
	// their evaluations appear in the session trial log).
	Results []SessionTrial `json:"results"`
	// Done reports whether the driven method finished during this tell.
	Done  bool          `json:"done"`
	State string        `json:"state"`
	Best  *SessionTrial `json:"best,omitempty"`
	// SpentRounds is the cumulative training-round cost of evaluate items
	// (incremental per config: re-reading a checkpoint already paid for is
	// free).
	SpentRounds int `json:"spent_rounds"`
}

// HealthJournal is the journal block of GET /healthz.
type HealthJournal struct {
	Enabled      bool   `json:"enabled"`
	Bytes        int64  `json:"bytes,omitempty"`
	MaxBytes     int64  `json:"max_bytes,omitempty"`
	LastSnapshot string `json:"last_snapshot,omitempty"`
}

// HealthBanks is the banks block of GET /healthz: bank-store state,
// including how much of the cache is currently mmap-served.
type HealthBanks struct {
	Enabled        bool   `json:"enabled"`
	Dir            string `json:"dir,omitempty"`
	MappedFiles    int64  `json:"mapped_files,omitempty"`
	MappedBytes    int64  `json:"mapped_bytes,omitempty"`
	Grows          int64  `json:"grows,omitempty"`
	CorruptSegment int64  `json:"corrupt_segment,omitempty"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status     string        `json:"status"`
	Uptime     string        `json:"uptime"`
	RunsActive int64         `json:"runs_active"`
	RunsQueued int64         `json:"runs_queued"`
	Journal    HealthJournal `json:"journal"`
	Banks      HealthBanks   `json:"banks"`
}

// GrowBankRequest is the body of POST /v1/banks/{key}/grow.
type GrowBankRequest struct {
	Add int `json:"add"` // configs to train and append (≥ 1)
}

// GrowBankResult is the response of POST /v1/banks/{key}/grow. Its field set
// is internal/exper.GrowResult's.
type GrowBankResult struct {
	Dataset string `json:"dataset"`
	OldKey  string `json:"old_key"`
	NewKey  string `json:"new_key"`
	Added   int    `json:"added"`
	Total   int    `json:"total"`
}

// TraceSpan mirrors one span of GET /v1/runs/{id}/trace (obs.SpanView).
type TraceSpan struct {
	Name       string            `json:"name"`
	Start      string            `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// RunTrace mirrors GET /v1/runs/{id}/trace (obs.TraceView): the run's span
// timeline under its trace ID. A journal-recovered run answers with an empty
// timeline — the run survived the crash, its spans did not.
type RunTrace struct {
	TraceID string      `json:"trace_id"`
	Spans   []TraceSpan `json:"spans"`
}

// Span returns the first span with the given name (nil when absent).
func (t RunTrace) Span(name string) *TraceSpan {
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			return &t.Spans[i]
		}
	}
	return nil
}

// ErrorEnvelope is the body of every non-2xx response on /v1/*.
type ErrorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo is the envelope payload: a machine-readable code and a message
// for humans.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// APIError is a non-2xx response: the HTTP status plus the server's coded
// envelope. Branch on Code ("unknown_method", "budget_exhausted", ...).
type APIError struct {
	Status  int
	Code    string
	Message string
	// RetryAfter is the server's Retry-After hint in seconds (0 when the
	// response carried none). The client's RetryPolicy honors it.
	RetryAfter int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("noisyevald: %d %s: %s", e.Status, e.Code, e.Message)
}

// Client talks to one noisyevald.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry controls automatic retries on transient failures (429/503
	// rejections for every call; connection errors for idempotent ones).
	// nil = DefaultRetryPolicy. Use NoRetry() to disable.
	Retry *RetryPolicy
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) retry() *RetryPolicy {
	if c.Retry != nil {
		return c.Retry
	}
	return DefaultRetryPolicy()
}

// apiErrorFrom decodes a non-2xx response into *APIError, capturing the
// Retry-After hint for the retry policy.
func apiErrorFrom(resp *http.Response, raw []byte) *APIError {
	retryAfter := 0
	if s := resp.Header.Get("Retry-After"); s != "" {
		retryAfter, _ = strconv.Atoi(s)
	}
	var env ErrorEnvelope
	if json.Unmarshal(raw, &env) == nil && env.Error.Code != "" {
		return &APIError{Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message, RetryAfter: retryAfter}
	}
	return &APIError{Status: resp.StatusCode, Code: "unknown", Message: strings.TrimSpace(string(raw)), RetryAfter: retryAfter}
}

// do issues one JSON call with automatic retries; non-2xx decodes into
// *APIError. 429/503 rejections retry for every call (the server did not
// process them); transport errors retry only for idempotent calls — GETs,
// and POST /v1/runs, which the daemon deduplicates by content-addressed run
// key, so a double submission is harmless.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var raw []byte
	if in != nil {
		var err error
		if raw, err = json.Marshal(in); err != nil {
			return err
		}
	}
	idempotent := method == http.MethodGet ||
		(method == http.MethodPost && path == "/v1/runs")
	pol := c.retry()
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, raw, out)
		if err == nil {
			return nil
		}
		delay, retry := pol.shouldRetry(ctx, err, attempt, idempotent)
		if !retry {
			return err
		}
		if serr := sleepCtx(ctx, delay); serr != nil {
			return err
		}
	}
}

// doOnce issues exactly one JSON round trip.
func (c *Client) doOnce(ctx context.Context, method, path string, rawIn []byte, out any) error {
	var body io.Reader
	if rawIn != nil {
		body = bytes.NewReader(rawIn)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if rawIn != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := readBody(resp)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return apiErrorFrom(resp, raw)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// maxExactBody bounds the Content-Length readBody trusts for one up-front
// allocation; a larger or undeclared length grows through io.ReadAll.
const maxExactBody = 4 << 20

// readBody reads a response body. The daemon declares every JSON body's
// Content-Length, so the common case is one exact buffer; a body shorter
// than its declared length fails with io.ErrUnexpectedEOF.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxExactBody {
		return io.ReadAll(resp.Body)
	}
	raw := make([]byte, n)
	_, err := io.ReadFull(resp.Body, raw)
	return raw, err
}

// SubmitRun submits a tuning job. A dedup hit returns the absorbed run.
func (c *Client) SubmitRun(ctx context.Context, req RunRequest) (RunStatus, error) {
	var st RunStatus
	err := c.do(ctx, http.MethodPost, "/v1/runs", req, &st)
	return st, err
}

// GetRun fetches a run's status/result.
func (c *Client) GetRun(ctx context.Context, id string) (RunStatus, error) {
	var st RunStatus
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// ListRuns fetches one page of runs.
func (c *Client) ListRuns(ctx context.Context, opts ListRunsOptions) (RunPage, error) {
	q := url.Values{}
	if opts.State != "" {
		q.Set("state", opts.State)
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.Cursor != "" {
		q.Set("cursor", opts.Cursor)
	}
	path := "/v1/runs"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var page RunPage
	err := c.do(ctx, http.MethodGet, path, nil, &page)
	return page, err
}

// StreamEvents consumes a run's NDJSON event stream, calling fn per event
// until the stream ends (terminal event), fn returns an error, or ctx
// expires. afterSeq > -1 resumes after that sequence number via
// Last-Event-ID, exactly as a reconnecting SSE client would.
func (c *Client) StreamEvents(ctx context.Context, id string, afterSeq int, fn func(Event) error) error {
	body, err := c.openEvents(ctx, id, afterSeq)
	if err != nil {
		return err
	}
	defer body.Close()
	// The scanner starts at 4 KiB and grows to the longest line, up to 1 MiB:
	// a run's events are a few lines of about 150 bytes each.
	sc := bufio.NewScanner(body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("bad event line %q: %w", sc.Text(), err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return sc.Err()
}

// openEvents connects to a run's event stream and returns its body.
func (c *Client) openEvents(ctx context.Context, id string, afterSeq int) (io.ReadCloser, error) {
	// Only the connect phase retries: before the first byte of the stream,
	// reconnecting cannot duplicate events. Mid-stream failures return to
	// the caller, who resumes with afterSeq (Last-Event-ID) exactly as a
	// reconnecting SSE client would.
	pol := c.retry()
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/runs/"+url.PathEscape(id)+"/events", nil)
		if err != nil {
			return nil, err
		}
		if afterSeq > -1 {
			req.Header.Set("Last-Event-ID", strconv.Itoa(afterSeq))
		}
		resp, connErr := c.httpClient().Do(req)
		if connErr == nil && resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			connErr = apiErrorFrom(resp, raw)
		}
		if connErr == nil {
			return resp.Body, nil
		}
		delay, retry := pol.shouldRetry(ctx, connErr, attempt, true)
		if !retry {
			return nil, connErr
		}
		if serr := sleepCtx(ctx, delay); serr != nil {
			return nil, connErr
		}
	}
}

// WaitRun waits for the run to reach a terminal state, then returns the
// final status. It reads the event stream to its end without decoding it:
// the status GetRun returns carries everything the events would.
func (c *Client) WaitRun(ctx context.Context, id string) (RunStatus, error) {
	body, err := c.openEvents(ctx, id, -1)
	if err == nil {
		_, err = io.Copy(io.Discard, body)
		body.Close()
	}
	if err != nil {
		return RunStatus{}, err
	}
	return c.GetRun(ctx, id)
}

// Trace fetches a run's span timeline (GET /v1/runs/{id}/trace).
func (c *Client) Trace(ctx context.Context, id string) (RunTrace, error) {
	var tr RunTrace
	err := c.do(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(id)+"/trace", nil, &tr)
	return tr, err
}

// Metrics fetches the daemon's Prometheus text exposition (GET /metrics),
// verbatim. Callers that only need one series can string-search it; anything
// richer should scrape with a real Prometheus client.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	pol := c.retry()
	for attempt := 0; ; attempt++ {
		body, err := c.metricsOnce(ctx)
		if err == nil {
			return body, nil
		}
		delay, retry := pol.shouldRetry(ctx, err, attempt, true)
		if !retry {
			return "", err
		}
		if serr := sleepCtx(ctx, delay); serr != nil {
			return "", err
		}
	}
}

func (c *Client) metricsOnce(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", apiErrorFrom(resp, raw)
	}
	return string(raw), nil
}

// Methods fetches the tuning-method catalogue.
func (c *Client) Methods(ctx context.Context) ([]MethodInfo, error) {
	var resp struct {
		Methods []MethodInfo `json:"methods"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/methods", nil, &resp)
	return resp.Methods, err
}

// OpenSession opens an ask/tell tuner session.
func (c *Client) OpenSession(ctx context.Context, req SessionRequest) (SessionStatus, error) {
	var st SessionStatus
	err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &st)
	return st, err
}

// GetSession fetches a session's state, trial log, and best-so-far.
func (c *Client) GetSession(ctx context.Context, id string) (SessionStatus, error) {
	var st SessionStatus
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Ask requests the session method's next suggested evaluation.
func (c *Client) Ask(ctx context.Context, id string) (AskResponse, error) {
	var resp AskResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/ask", nil, &resp)
	return resp, err
}

// Tell answers pending asks and/or evaluates caller-chosen configurations.
func (c *Client) Tell(ctx context.Context, id string, req TellRequest) (TellResponse, error) {
	var resp TellResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(id)+"/tell", req, &resp)
	return resp, err
}

// CloseSession closes a session, returning its final status.
func (c *Client) CloseSession(ctx context.Context, id string) (SessionStatus, error) {
	var st SessionStatus
	err := c.do(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, &st)
	return st, err
}

// DriveSession runs a driven session's full ask/tell loop, answering every
// ask with the server's own bank evaluation, and returns the completed
// status — the external-driver loop in one call. maxSteps bounds the loop
// (0 = 10000).
func (c *Client) DriveSession(ctx context.Context, id string, maxSteps int) (SessionStatus, error) {
	if maxSteps <= 0 {
		maxSteps = 10000
	}
	for i := 0; i < maxSteps; i++ {
		ask, err := c.Ask(ctx, id)
		if err != nil {
			return SessionStatus{}, err
		}
		if ask.Done {
			return c.GetSession(ctx, id)
		}
		if _, err := c.Tell(ctx, id, TellRequest{Answers: []TellAnswer{{AskID: ask.Asks[0].ID}}}); err != nil {
			return SessionStatus{}, err
		}
	}
	return SessionStatus{}, fmt.Errorf("noisyevald: session %s did not finish in %d steps", id, maxSteps)
}

// GetHealth fetches /healthz.
func (c *Client) GetHealth(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// GrowBank asks the daemon to extend the bank addressed by key with add
// freshly trained configs (POST /v1/banks/{key}/grow). On success the
// bank's content address has advanced to NewKey; the old key keeps
// resolving through a store alias.
func (c *Client) GrowBank(ctx context.Context, key string, add int) (GrowBankResult, error) {
	var res GrowBankResult
	err := c.do(ctx, http.MethodPost, "/v1/banks/"+url.PathEscape(key)+"/grow", GrowBankRequest{Add: add}, &res)
	return res, err
}
