// Package obs is the observability core of the reproduction-turned-service:
// a metrics registry with counters, gauges, and fixed-bucket latency
// histograms exported in Prometheus text format, per-run tracing with spans
// that propagate across the dist lease wire, and the pprof listener.
// Structured logging is log/slog's, not this package's.
//
// The package is zero-dependency (stdlib only) and deliberately small: every
// layer of the system — core, exper, dist, serve, the cmd daemons — emits
// through it, so one /metrics scrape sees every counter and one trace shows
// where a run spent its time.
//
// Nil-safety is a design rule, not an accident: a nil *Trace and a nil
// *SpanTimer are valid no-op receivers, so instrumented code paths (the
// coordinator, the tuner hot loop) never branch on "is observability
// configured".
//
// See DESIGN.md §13 for the architecture, metric naming conventions, and the
// trace span inventory.
package obs
