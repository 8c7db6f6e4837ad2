package engine

import (
	"context"
	"errors"

	"repro/internal/metrics"
)

// Request statuses recorded by the pp_engine_requests_total counter.
const (
	statusOK          = "ok"
	statusBadRequest  = "bad_request"
	statusInterrupted = "interrupted"
	statusError       = "error"
)

// Metrics is the engine's exported instrumentation: per-kind request
// counters and latency histograms, artifact-cache traffic, and the
// execution-slot semaphore's instantaneous state. Every engine owns one
// (the instruments are cheap atomics whether or not anything scrapes
// them); transports register it into their metrics.Registry to expose it.
type Metrics struct {
	// Requests counts finished requests by kind and status (ok,
	// bad_request, interrupted, error).
	Requests *metrics.CounterVec
	// Latency is the per-kind request-duration histogram, in seconds.
	Latency *metrics.HistogramVec
	// CacheHits / CacheMisses count artifact-cache lookups (a request
	// waiting on another request's in-flight computation counts as a
	// miss); Engine.CacheStats reads them. CacheEvictions counts
	// artifact slots dropped — capacity evictions and interrupted
	// computations alike.
	CacheHits      *metrics.Counter
	CacheMisses    *metrics.Counter
	CacheEvictions *metrics.Counter
	// VerifyInputs counts the inputs verify requests checked, by source:
	// "table" (a recorded verdict) or "explored" (a configuration graph
	// built for the request).
	VerifyInputs *metrics.CounterVec
	// Interrupted counts analyses interrupted mid-flight by cancellation or
	// deadline — work that burned CPU without producing a result.
	Interrupted *metrics.Counter
	// SlotsBusy / SlotsCapacity / SlotQueue read the execution-slot
	// semaphore at scrape time (Engine.SlotStats): burning analyses,
	// total capacity, and the queue of requests waiting for a slot.
	SlotsBusy     *metrics.GaugeFunc
	SlotsCapacity *metrics.GaugeFunc
	SlotQueue     *metrics.GaugeFunc
}

func newEngineMetrics(e *Engine) *Metrics {
	sub := func(name, help string) metrics.Opts {
		return metrics.Opts{Namespace: "pp", Subsystem: "engine", Name: name, Help: help}
	}
	return &Metrics{
		Requests: metrics.NewCounterVec(
			sub("requests_total", "Analysis requests finished, by kind and status."),
			[]string{"kind", "status"}),
		Latency: metrics.NewHistogramVec(
			sub("request_duration_seconds", "Analysis request latency by kind."),
			nil, []string{"kind"}),
		CacheHits: metrics.NewCounter(
			sub("cache_hits_total", "Artifact-cache lookups served from a completed artifact.")),
		CacheMisses: metrics.NewCounter(
			sub("cache_misses_total", "Artifact-cache lookups that computed or waited on an in-flight artifact.")),
		CacheEvictions: metrics.NewCounter(
			sub("cache_evictions_total", "Artifact slots evicted (capacity pressure or interrupted computations).")),
		VerifyInputs: metrics.NewCounterVec(
			sub("verify_inputs_total", "Inputs checked by verify requests, by source (table or explored)."),
			[]string{"source"}),
		Interrupted: metrics.NewCounter(
			sub("interrupted_total", "Analyses interrupted mid-flight by cancellation or deadline.")),
		SlotsBusy: metrics.NewGaugeFunc(
			sub("slots_busy", "Execution slots currently burning CPU."),
			func() float64 { busy, _, _ := e.SlotStats(); return float64(busy) }),
		SlotsCapacity: metrics.NewGaugeFunc(
			sub("slots_capacity", "Execution-slot semaphore capacity."),
			func() float64 { _, capacity, _ := e.SlotStats(); return float64(capacity) }),
		SlotQueue: metrics.NewGaugeFunc(
			sub("slot_queue_depth", "Requests queued waiting for an execution slot."),
			func() float64 { _, _, queued := e.SlotStats(); return float64(queued) }),
	}
}

// Metrics returns the engine's instrumentation.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// Collectors returns every collector of the set, for registration.
func (m *Metrics) Collectors() []metrics.Collector {
	return []metrics.Collector{
		m.Requests, m.Latency,
		m.CacheHits, m.CacheMisses, m.CacheEvictions, m.VerifyInputs, m.Interrupted,
		m.SlotsBusy, m.SlotsCapacity, m.SlotQueue,
	}
}

// Register registers the whole set into reg. Register each engine into a
// given registry at most once — family names collide otherwise.
func (m *Metrics) Register(reg *metrics.Registry) {
	reg.MustRegister(m.Collectors()...)
}

// requestStatus classifies a finished request for the status label.
func requestStatus(err error) string {
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, ErrBadRequest):
		return statusBadRequest
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return statusInterrupted
	default:
		return statusError
	}
}
