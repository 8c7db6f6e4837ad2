// Package metrics is a dependency-free Prometheus-compatible
// instrumentation library: counters, gauges and histograms (plain and
// labelled), a registry, and an HTTP handler emitting the Prometheus text
// exposition format (version 0.0.4), so any Prometheus scraper can consume
// a GET /metrics endpoint backed by it.
//
// The repo builds with no third-party modules, so this package supplies
// the subset of github.com/prometheus/client_golang the serving path
// needs, with the same shape: instruments are created from Opts
// (namespace_subsystem_name), registered once into a Registry, and every
// exported family is assertable in tests via the sibling testutil package
// (ToFloat64, CollectAndCompare) rather than only scraped by hand.
//
// All instruments are safe for concurrent use: counters and gauges are
// lock-free atomics, histograms take a short mutex per observation, and
// vectors guard their child map with a mutex. Gathering never blocks
// writers for longer than one sample copy.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Opts names an instrument. The full family name is the non-empty parts of
// Namespace, Subsystem and Name joined by underscores.
type Opts struct {
	Namespace string
	Subsystem string
	Name      string
	Help      string
}

func (o Opts) fullName() string {
	parts := make([]string, 0, 3)
	for _, p := range []string{o.Namespace, o.Subsystem, o.Name} {
		if p != "" {
			parts = append(parts, p)
		}
	}
	name := strings.Join(parts, "_")
	if name == "" {
		panic("metrics: instrument with empty name")
	}
	return name
}

// Label is one name="value" pair of a sample.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposition line of a family: an optional name suffix
// ("_bucket", "_sum", "_count" for histograms), the label pairs in
// declaration order, and the value.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// Family is one metric family in exposition form: every sample of one
// name, with its HELP and TYPE metadata.
type Family struct {
	Name    string
	Help    string
	Type    string // "counter", "gauge" or "histogram"
	Samples []Sample
}

// Collector is anything that can report one metric family. All instruments
// in this package implement it; callers may implement it directly for
// gauges computed at scrape time over external state (see the cluster
// membership collectors).
type Collector interface {
	Family() Family
}

// value is a float64 updated with lock-free compare-and-swap.
type value struct{ bits atomic.Uint64 }

func (v *value) add(d float64) {
	for {
		o := v.bits.Load()
		n := math.Float64bits(math.Float64frombits(o) + d)
		if v.bits.CompareAndSwap(o, n) {
			return
		}
	}
}

func (v *value) set(x float64) { v.bits.Store(math.Float64bits(x)) }
func (v *value) get() float64  { return math.Float64frombits(v.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct {
	opts   Opts
	labels []Label // set for children of a CounterVec
	val    value
}

// NewCounter returns a counter starting at 0.
func NewCounter(opts Opts) *Counter {
	opts.fullName() // validate eagerly
	return &Counter{opts: opts}
}

// Inc adds 1.
func (c *Counter) Inc() { c.val.add(1) }

// Add adds v, which must not be negative.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("metrics: counter decreased")
	}
	c.val.add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.val.get() }

// Family implements Collector.
func (c *Counter) Family() Family {
	return Family{
		Name: c.opts.fullName(), Help: c.opts.Help, Type: "counter",
		Samples: []Sample{{Labels: c.labels, Value: c.Value()}},
	}
}

// Gauge is a value that can go up and down.
type Gauge struct {
	opts   Opts
	labels []Label
	val    value
}

// NewGauge returns a gauge starting at 0.
func NewGauge(opts Opts) *Gauge {
	opts.fullName()
	return &Gauge{opts: opts}
}

// Set sets the gauge.
func (g *Gauge) Set(v float64) { g.val.set(v) }

// Inc adds 1; Dec subtracts 1; Add adds v (may be negative).
func (g *Gauge) Inc()          { g.val.add(1) }
func (g *Gauge) Dec()          { g.val.add(-1) }
func (g *Gauge) Add(v float64) { g.val.add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.val.get() }

// Family implements Collector.
func (g *Gauge) Family() Family {
	return Family{
		Name: g.opts.fullName(), Help: g.opts.Help, Type: "gauge",
		Samples: []Sample{{Labels: g.labels, Value: g.Value()}},
	}
}

// GaugeFunc is a gauge whose value is computed at gather time — the right
// shape for instantaneous state someone else owns (semaphore occupancy,
// queue depth), where a stored gauge would race or go stale.
type GaugeFunc struct {
	opts Opts
	fn   func() float64
}

// NewGaugeFunc returns a gauge computed by fn at every gather.
func NewGaugeFunc(opts Opts, fn func() float64) *GaugeFunc {
	opts.fullName()
	if fn == nil {
		panic("metrics: nil GaugeFunc")
	}
	return &GaugeFunc{opts: opts, fn: fn}
}

// Value calls the function.
func (g *GaugeFunc) Value() float64 { return g.fn() }

// Family implements Collector.
func (g *GaugeFunc) Family() Family {
	return Family{
		Name: g.opts.fullName(), Help: g.opts.Help, Type: "gauge",
		Samples: []Sample{{Value: g.fn()}},
	}
}

// DefBuckets are the default histogram buckets, in seconds: latency from
// sub-millisecond cache hits to multi-minute analyses.
var DefBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30, 120}

// Histogram counts observations into cumulative buckets and tracks their
// sum — request latencies, mostly.
type Histogram struct {
	opts    Opts
	labels  []Label
	buckets []float64 // upper bounds, sorted; +Inf is implicit

	mu     sync.Mutex
	counts []uint64
	sum    float64
	count  uint64
}

// NewHistogram returns a histogram over the given bucket upper bounds
// (nil = DefBuckets).
func NewHistogram(opts Opts, buckets []float64) *Histogram {
	opts.fullName()
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	b := append([]float64(nil), buckets...)
	sort.Float64s(b)
	return &Histogram{opts: opts, buckets: b, counts: make([]uint64, len(b))}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Count returns how many observations have been recorded.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile estimates the q-quantile of the recorded observations from the
// bucket counts, with linear interpolation inside the bucket the rank
// falls into. Observations past the largest finite bucket clamp to that
// bound, and an empty histogram reports 0 — callers treat 0 as "no
// signal" and fall back to their own default.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	count := h.count
	h.mu.Unlock()
	return bucketQuantile(q, h.buckets, counts, count)
}

func bucketQuantile(q float64, bounds []float64, counts []uint64, total uint64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	rank := q * float64(total)
	var cum float64
	for i, ub := range bounds {
		prev := cum
		cum += float64(counts[i])
		if cum >= rank && counts[i] > 0 {
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			return lower + (ub-lower)*(rank-prev)/float64(counts[i])
		}
	}
	// The rank lands among observations above every finite bucket.
	return bounds[len(bounds)-1]
}

// Family implements Collector.
func (h *Histogram) Family() Family {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()

	f := Family{Name: h.opts.fullName(), Help: h.opts.Help, Type: "histogram"}
	cum := uint64(0)
	for i, ub := range h.buckets {
		cum += counts[i]
		f.Samples = append(f.Samples, Sample{
			Suffix: "_bucket",
			Labels: append(append([]Label(nil), h.labels...), Label{Name: "le", Value: formatFloat(ub)}),
			Value:  float64(cum),
		})
	}
	f.Samples = append(f.Samples,
		Sample{Suffix: "_bucket", Labels: append(append([]Label(nil), h.labels...), Label{Name: "le", Value: "+Inf"}), Value: float64(count)},
		Sample{Suffix: "_sum", Labels: h.labels, Value: sum},
		Sample{Suffix: "_count", Labels: h.labels, Value: float64(count)},
	)
	return f
}

// vec is the shared child-map machinery of the labelled instruments.
type vec[T any] struct {
	opts       Opts
	labelNames []string
	make       func(labels []Label) *T

	mu       sync.Mutex
	children map[string]*T
	order    []string // insertion-ordered keys; Family sorts for stable output
}

func newVec[T any](opts Opts, labelNames []string, mk func([]Label) *T) *vec[T] {
	opts.fullName()
	if len(labelNames) == 0 {
		panic("metrics: labelled instrument with no label names")
	}
	return &vec[T]{opts: opts, labelNames: labelNames, make: mk, children: make(map[string]*T)}
}

func (v *vec[T]) with(values ...string) *T {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d",
			v.opts.fullName(), len(v.labelNames), len(values)))
	}
	key := strings.Join(values, "\xff")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[key]
	if !ok {
		labels := make([]Label, len(values))
		for i, val := range values {
			labels[i] = Label{Name: v.labelNames[i], Value: val}
		}
		c = v.make(labels)
		v.children[key] = c
		v.order = append(v.order, key)
	}
	return c
}

// snapshot returns the children sorted by label key for deterministic
// exposition.
func (v *vec[T]) snapshot() []*T {
	v.mu.Lock()
	keys := append([]string(nil), v.order...)
	sort.Strings(keys)
	out := make([]*T, len(keys))
	for i, k := range keys {
		out[i] = v.children[k]
	}
	v.mu.Unlock()
	return out
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ v *vec[Counter] }

// NewCounterVec returns a counter vector over the given label names.
func NewCounterVec(opts Opts, labelNames []string) *CounterVec {
	return &CounterVec{v: newVec(opts, labelNames, func(labels []Label) *Counter {
		return &Counter{opts: opts, labels: labels}
	})}
}

// WithLabelValues returns (creating on first use) the child for the given
// label values, in declaration order.
func (cv *CounterVec) WithLabelValues(values ...string) *Counter { return cv.v.with(values...) }

// Family implements Collector.
func (cv *CounterVec) Family() Family {
	f := Family{Name: cv.v.opts.fullName(), Help: cv.v.opts.Help, Type: "counter"}
	for _, c := range cv.v.snapshot() {
		f.Samples = append(f.Samples, Sample{Labels: c.labels, Value: c.Value()})
	}
	return f
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ v *vec[Histogram] }

// NewHistogramVec returns a histogram vector over the given label names
// and bucket bounds (nil = DefBuckets).
func NewHistogramVec(opts Opts, buckets []float64, labelNames []string) *HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	b := append([]float64(nil), buckets...)
	sort.Float64s(b)
	return &HistogramVec{v: newVec(opts, labelNames, func(labels []Label) *Histogram {
		return &Histogram{opts: opts, labels: labels, buckets: b, counts: make([]uint64, len(b))}
	})}
}

// WithLabelValues returns (creating on first use) the child for the given
// label values.
func (hv *HistogramVec) WithLabelValues(values ...string) *Histogram { return hv.v.with(values...) }

// Quantile estimates the q-quantile across every child merged — the
// vector-wide distribution. Children share bucket bounds by construction.
// An empty vector (or one with no observations) reports 0.
func (hv *HistogramVec) Quantile(q float64) float64 {
	var (
		bounds []float64
		counts []uint64
		total  uint64
	)
	for _, h := range hv.v.snapshot() {
		h.mu.Lock()
		if counts == nil {
			bounds = h.buckets
			counts = make([]uint64, len(h.counts))
		}
		for i, c := range h.counts {
			counts[i] += c
		}
		total += h.count
		h.mu.Unlock()
	}
	return bucketQuantile(q, bounds, counts, total)
}

// Family implements Collector.
func (hv *HistogramVec) Family() Family {
	f := Family{Name: hv.v.opts.fullName(), Help: hv.v.opts.Help, Type: "histogram"}
	for _, h := range hv.v.snapshot() {
		f.Samples = append(f.Samples, h.Family().Samples...)
	}
	return f
}

// Registry holds a set of collectors with unique family names.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
	names      map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{names: make(map[string]bool)} }

// MustRegister adds collectors, panicking on a duplicate family name —
// two collectors exposing the same name would emit an invalid scrape.
func (r *Registry) MustRegister(cs ...Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cs {
		name := c.Family().Name
		if r.names[name] {
			panic(fmt.Sprintf("metrics: duplicate family %q", name))
		}
		r.names[name] = true
		r.collectors = append(r.collectors, c)
	}
}

// Gather snapshots every registered family, sorted by name.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	cs := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()
	fams := make([]Family, len(cs))
	for i, c := range cs {
		fams[i] = c.Family()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	return fams
}

// Handler returns the GET /metrics endpoint: the registry's families in
// the Prometheus text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var sb strings.Builder
		WriteText(&sb, r.Gather())
		_, _ = w.Write([]byte(sb.String()))
	})
}

// WriteText renders families in the Prometheus text exposition format.
func WriteText(sb *strings.Builder, fams []Family) {
	for _, f := range fams {
		fmt.Fprintf(sb, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		fmt.Fprintf(sb, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			sb.WriteString(f.Name)
			sb.WriteString(s.Suffix)
			if len(s.Labels) > 0 {
				sb.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						sb.WriteByte(',')
					}
					fmt.Fprintf(sb, "%s=%q", l.Name, l.Value)
				}
				sb.WriteByte('}')
			}
			sb.WriteByte(' ')
			sb.WriteString(formatFloat(s.Value))
			sb.WriteByte('\n')
		}
	}
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
