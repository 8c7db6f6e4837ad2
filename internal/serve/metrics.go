package serve

import (
	"net/http"
	"strconv"

	"repro/internal/metrics"
)

// Metrics is the HTTP layer's instrumentation: per-endpoint request
// outcomes, streaming volume, and the admission-control decisions that
// make load shedding observable.
type Metrics struct {
	// Requests counts finished requests by mounted endpoint and HTTP
	// status code (as written; a handler writing nothing counts as 200,
	// which is what net/http puts on the wire).
	Requests *metrics.CounterVec
	// SweepsInflight gauges sweeps currently streaming rows — local and
	// coordinator fan-out alike. It must read 0 after a drain.
	SweepsInflight *metrics.Gauge
	// Shed counts requests answered 503 + Retry-After by the admission
	// controller, by endpoint. Shed requests also land in Requests with
	// status 503.
	Shed *metrics.CounterVec
	// StreamRows counts NDJSON rows streamed by /v1/sweep, by row type
	// (cell, summary, error).
	StreamRows *metrics.CounterVec
	// RateLimited counts requests answered 429 + Retry-After by the
	// per-client rate limiter, by endpoint. They also land in Requests
	// with status 429.
	RateLimited *metrics.CounterVec
}

func newServeMetrics() *Metrics {
	sub := func(name, help string) metrics.Opts {
		return metrics.Opts{Namespace: "pp", Subsystem: "serve", Name: name, Help: help}
	}
	return &Metrics{
		Requests: metrics.NewCounterVec(
			sub("requests_total", "HTTP requests finished, by endpoint and status code."),
			[]string{"endpoint", "status"}),
		SweepsInflight: metrics.NewGauge(
			sub("sweeps_inflight", "Sweeps currently streaming rows.")),
		Shed: metrics.NewCounterVec(
			sub("shed_total", "Requests shed with 503 + Retry-After by admission control, by endpoint."),
			[]string{"endpoint"}),
		StreamRows: metrics.NewCounterVec(
			sub("stream_rows_total", "NDJSON rows streamed by /v1/sweep, by row type."),
			[]string{"type"}),
		RateLimited: metrics.NewCounterVec(
			sub("rate_limited_total", "Requests answered 429 + Retry-After by the per-client rate limiter, by endpoint."),
			[]string{"endpoint"}),
	}
}

// Collectors returns every collector of the set, for registration.
func (m *Metrics) Collectors() []metrics.Collector {
	return []metrics.Collector{m.Requests, m.SweepsInflight, m.Shed, m.StreamRows, m.RateLimited}
}

// Register registers the whole set into reg.
func (m *Metrics) Register(reg *metrics.Registry) {
	reg.MustRegister(m.Collectors()...)
}

// statusWriter records the status code a handler writes. Unwrap keeps
// http.NewResponseController working through the wrapper (the sweep
// handler's rowWriter flushes through it on a deadline).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// Status is the recorded code; a handler that wrote nothing reads as 200,
// matching what net/http sends for it.
func (sw *statusWriter) Status() int {
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

// instrumented wraps one endpoint's handler with the request counter.
func (m *Metrics) instrumented(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		m.Requests.WithLabelValues(endpoint, strconv.Itoa(sw.Status())).Inc()
	}
}
