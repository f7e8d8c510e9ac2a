package hpo

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// IDCache interns the "<prefix><n>" strings methods use as evaluation-cohort
// names (evalIDs) and the oracle uses as trial salts. The legacy derivation
// built these with fmt.Sprintf on every evaluation — measurable garbage when
// a blocked run issues hundreds of thousands of evaluations per second. The
// cache hands back one shared string per index: byte-identical to the
// Sprintf form (pinned by TestIDCacheMatchesSprintf), allocation-free on the
// steady-state path, and safe for concurrent use (reads are a single atomic
// load; growth is serialized by a mutex and publishes a fresh table).
type IDCache struct {
	prefix string
	mu     sync.Mutex
	v      atomic.Pointer[[]string]
}

// NewIDCache returns a cache whose ID(n) is prefix + decimal(n).
func NewIDCache(prefix string) *IDCache { return &IDCache{prefix: prefix} }

// ID returns the interned string prefix + decimal(n), byte-identical to
// fmt.Sprintf("%s%d", prefix, n).
func (t *IDCache) ID(n int) string {
	if tab := t.v.Load(); tab != nil && n >= 0 && n < len(*tab) {
		return (*tab)[n]
	}
	return t.slow(n)
}

// IDs returns ID(0), …, ID(n-1) as a read-only view of the interned table:
// a method whose asks are numbered from zero hands it to an EvalBatch as its
// EvalIDs without building a slice per run. The view's capacity is n, so an
// append copies instead of writing into the shared table.
func (t *IDCache) IDs(n int) []string {
	if n <= 0 {
		return nil
	}
	if tab := t.v.Load(); tab == nil || n > len(*tab) {
		t.slow(n - 1)
	}
	return (*t.v.Load())[:n:n]
}

func (t *IDCache) slow(n int) string {
	if n < 0 {
		// Never hit by the methods (indices count up from zero); keep the
		// contract total without polluting the table.
		return t.prefix + strconv.Itoa(n)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var cur []string
	if p := t.v.Load(); p != nil {
		cur = *p
	}
	if n < len(cur) {
		return cur[n]
	}
	size := 2 * len(cur)
	if size < n+1 {
		size = n + 1
	}
	if size < 64 {
		size = 64
	}
	tab := make([]string, size)
	copy(tab, cur)
	for i := len(cur); i < size; i++ {
		tab[i] = t.prefix + strconv.Itoa(i)
	}
	t.v.Store(&tab)
	return tab[n]
}

// Method-loop evalID tables. One table per prefix keeps every trial of every
// run sharing the same interned strings.
var (
	rsEvalIDs    = NewIDCache("rs-eval-")
	gridEvalIDs  = NewIDCache("grid-eval-")
	tpeEvalIDs   = NewIDCache("tpe-eval-")
	nboInitIDs   = NewIDCache("nbo-init-")
	nboTSIDs     = NewIDCache("nbo-ts-")
	fedpopGenIDs = NewIDCache("fedpop-gen-")
	proxyEvalIDs = NewIDCache("proxy-eval-")
)
