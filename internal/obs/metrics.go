package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics and renders them in Prometheus text
// exposition format (version 0.0.4). Registration is idempotent by name:
// asking twice for the same counter returns the same instrument, so layers
// can share a registry without coordinating init order. Kind or help
// mismatches on an existing name panic — that is a programming error, not a
// runtime condition.
type Registry struct {
	mu       sync.Mutex
	order    []metric
	byName   map[string]metric
	attached []*Registry
}

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

type metric interface {
	metricName() string
	writeProm(w io.Writer)
}

// Attach merges another registry into this one's exposition: the attached
// registry's metrics render after this registry's own, in attach order.
// Attaching the same registry twice is a no-op. This is how the per-process
// /metrics endpoint folds in the core-package registry and per-subsystem
// registries without a process-global.
func (r *Registry) Attach(other *Registry) {
	if r == nil || other == nil || other == r {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range r.attached {
		if a == other {
			return
		}
	}
	r.attached = append(r.attached, other)
}

// register implements idempotent-by-name registration.
func (r *Registry) register(name string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := mk()
	r.byName[name] = m
	r.order = append(r.order, m)
	return m
}

// WritePrometheus renders every metric (own first, then attached
// registries) in text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	own := append([]metric(nil), r.order...)
	attached := append([]*Registry(nil), r.attached...)
	r.mu.Unlock()
	for _, m := range own {
		m.writeProm(w)
	}
	for _, a := range attached {
		a.WritePrometheus(w)
	}
}

// ServeHTTP serves the exposition, so a registry mounts directly as a
// daemon's GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w)
}

// Counter is a monotonically increasing int64. Inc/Add are a single atomic
// op — safe and cheap on hot paths.
type Counter struct {
	nm, help string
	v        atomic.Int64
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, func() metric { return &Counter{nm: name, help: help} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.nm }

func (c *Counter) writeProm(w io.Writer) {
	writeHeader(w, c.nm, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.nm, c.v.Load())
}

// Gauge is a settable int64 level.
type Gauge struct {
	nm, help string
	v        atomic.Int64
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, func() metric { return &Gauge{nm: name, help: help} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.nm }

func (g *Gauge) writeProm(w io.Writer) {
	writeHeader(w, g.nm, g.help, "gauge")
	fmt.Fprintf(w, "%s %d\n", g.nm, g.v.Load())
}

// funcMetric exposes a value another type owns and computes (a store's cache
// stats, a queue length read under its lock) without copying it into the
// registry: the series is a view of that owner's state. A counter the
// registering type increments itself is a Counter, not a view.
type funcMetric struct {
	nm, help, kind string
	fn             func() int64
}

// CounterFunc registers a read-only counter view over fn.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	m := r.register(name, func() metric { return &funcMetric{nm: name, help: help, kind: "counter", fn: fn} })
	if _, ok := m.(*funcMetric); !ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
}

// GaugeFunc registers a read-only gauge view over fn.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	m := r.register(name, func() metric { return &funcMetric{nm: name, help: help, kind: "gauge", fn: fn} })
	if _, ok := m.(*funcMetric); !ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
}

// DefBuckets are latency bounds in seconds spanning warm oracle evaluations
// (tens of microseconds) through cold sharded bank builds (tens of seconds).
var DefBuckets = []float64{
	5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Observe is lock-free and
// allocation-free: one bucket index scan over a small bounds slice, two
// atomic adds, and a CAS loop for the float64 sum — cheap enough for the
// oracle trial loop, which the BenchmarkObsOverhead gate holds to 0
// allocs/op.
type Histogram struct {
	nm, help string
	bounds   []float64      // upper bounds, ascending; +Inf implicit
	buckets  []atomic.Int64 // len(bounds)+1, non-cumulative; cumulated at expose time
	count    atomic.Int64
	sum      atomic.Uint64 // math.Float64bits
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds (nil means DefBuckets). Bounds must be
// sorted ascending.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.register(name, func() metric {
		bs := bounds
		if len(bs) == 0 {
			bs = DefBuckets
		}
		if !sort.Float64sAreSorted(bs) {
			panic(fmt.Sprintf("obs: histogram %q bounds not sorted", name))
		}
		own := append([]float64(nil), bs...)
		return &Histogram{nm: name, help: help, bounds: own, buckets: make([]atomic.Int64, len(own)+1)}
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	return h
}

// Observe records one value (typically seconds of latency).
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) metricName() string { return h.nm }

func (h *Histogram) writeProm(w io.Writer) {
	writeHeader(w, h.nm, h.help, "histogram")
	var cum int64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", h.nm, formatFloat(b), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nm, cum)
	fmt.Fprintf(w, "%s_sum %s\n", h.nm, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", h.nm, h.count.Load())
}

func writeHeader(w io.Writer, name, help, kind string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (f *funcMetric) metricName() string { return f.nm }

func (f *funcMetric) writeProm(w io.Writer) {
	writeHeader(w, f.nm, f.help, f.kind)
	fmt.Fprintf(w, "%s %d\n", f.nm, f.fn())
}
