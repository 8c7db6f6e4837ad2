// Package serve is the HTTP front-end of the analysis engine: a handler
// exposing the typed Request/Result model as a JSON API. The ppserve
// command wraps it in a daemon; tests and examples mount it in-process.
//
// Endpoints:
//
//	POST /v1/analyze   run one engine.Request, respond with engine.Result
//	POST /v1/sweep     run a sweep.Spec, streaming NDJSON (one row per cell)
//	GET  /v1/catalog   list resolvable specs and the built-in protocol zoo
//	GET  /healthz      liveness probe
//
// Requests run concurrently (one goroutine per connection, standard
// net/http) against a shared engine, whose artifact cache makes repeated
// analyses of the same protocol near-free. Every analyze request gets a
// deadline: its own TimeoutMillis if set (clamped to MaxTimeout), else
// DefaultTimeout. Sweeps run under SweepTimeout and stream one JSON row
// per completed cell followed by a summary row, so even a very large grid
// is observable and interruptible mid-flight — closing the connection
// cancels in-flight cells and skips the rest.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/govern"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/protocols"
	"repro/internal/sweep"
)

// Options configures the handler.
type Options struct {
	// DefaultTimeout is the per-request deadline when the request does not
	// set TimeoutMillis. 0 means 30 seconds.
	DefaultTimeout time.Duration
	// MaxTimeout caps request-supplied deadlines. 0 means 2 minutes.
	MaxTimeout time.Duration
	// SweepTimeout bounds a whole /v1/sweep request. 0 means 10 minutes.
	SweepTimeout time.Duration
	// SweepWorkers is the worker-pool size of each sweep (0 = GOMAXPROCS).
	SweepWorkers int
	// Cluster, when set, makes this handler a cluster coordinator: the
	// membership endpoints (/v1/cluster/*) are mounted and /v1/sweep fans
	// out across the registered workers (falling back to local execution
	// when none are live).
	Cluster *cluster.Coordinator
	// ClusterDispatch tunes coordinator fan-out (range size, deadlines,
	// attempts). LocalEngine and LocalWorkers are always supplied by the
	// handler.
	ClusterDispatch cluster.DispatchOptions
	// RequestLog, when set, emits one structured line per request (kind,
	// protocol hash, duration, status, cache hit) and per cluster
	// membership event.
	RequestLog *slog.Logger
	// Journal, when set, makes every /v1/sweep durable: completed cells
	// are logged to a per-spec write-ahead file, and a
	// resubmitted spec (same content hash) replays its journaled cells and
	// executes only the rest — crash recovery with byte-identical canonical
	// output. A spec whose journal is already being written concurrently is
	// answered 409.
	Journal *journal.Store
	// MaxQueue bounds admission when every engine execution slot is busy:
	// once MaxQueue requests are already waiting for a slot, further
	// /v1/analyze and local /v1/sweep requests are shed with 503 +
	// Retry-After instead of queueing without bound. 0 means twice the slot
	// capacity; -1 disables shedding.
	MaxQueue int
	// RateLimit enables per-client admission rate limiting on the public
	// endpoints (/v1/analyze, /v1/sweep, /v1/catalog): each client — keyed
	// by X-API-Key, else remote IP — gets a token bucket refilling
	// RateLimit requests/second. Over-budget requests answer 429 with a
	// Retry-After computed from the bucket's actual refill time,
	// deterministically jittered per client. Cluster-internal endpoints
	// (/v1/cluster/*) and probes (/healthz, /metrics) are exempt — a
	// worker must never rate-limit its coordinator. 0 disables.
	RateLimit float64
	// RateBurst is the limiter's bucket size — how many back-to-back
	// requests a quiet client may issue (0 = max(1, 2×RateLimit)).
	RateBurst int
	// Metrics, when set, mounts GET /metrics serving this registry in the
	// Prometheus text exposition format, with the engine's, this handler's
	// and (under Cluster) the coordinator's collectors registered into it.
	// Each registry can back at most one handler: family names collide on
	// a second registration.
	Metrics *metrics.Registry

	// sm is the handler's instrumentation, created by NewHandler whether
	// or not Metrics exports it.
	sm *Metrics
}

func (o Options) withDefaults() Options {
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 2 * time.Minute
	}
	if o.DefaultTimeout > o.MaxTimeout {
		o.DefaultTimeout = o.MaxTimeout
	}
	if o.SweepTimeout <= 0 {
		o.SweepTimeout = 10 * time.Minute
	}
	if o.RequestLog == nil {
		o.RequestLog = slog.New(slog.DiscardHandler)
	}
	return o
}

// shed applies fail-fast admission control: when every engine execution
// slot is busy and the waiting queue is at its bound, the request is
// answered 503 + Retry-After immediately instead of queueing without
// bound. The Retry-After is the median observed latency of the request's
// kind (see shedRetryAfter), so the hint tracks how long a slot actually
// takes to free up. The cluster dispatcher understands the 503 as
// backpressure and retries the range on the same worker after the delay.
func shed(eng *engine.Engine, opts Options, endpoint, kind string, w http.ResponseWriter, r *http.Request) bool {
	if opts.MaxQueue < 0 {
		return false
	}
	busy, capacity, queued := eng.SlotStats()
	maxQueue := opts.MaxQueue
	if maxQueue == 0 {
		maxQueue = 2 * capacity
	}
	if busy < capacity || queued < maxQueue {
		return false
	}
	opts.sm.Shed.WithLabelValues(endpoint).Inc()
	w.Header().Set("Retry-After", retryAfterSeconds(shedRetryAfter(eng, kind, clientKey(r))))
	writeJSON(w, http.StatusServiceUnavailable, errorBody{
		Error: fmt.Sprintf("saturated: %d/%d slots busy, %d queued", busy, capacity, queued),
	})
	return true
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// catalogEntry describes one zoo protocol in the catalog response.
type catalogEntry struct {
	Key         string `json:"key"`
	Name        string `json:"name"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	Inputs      int    `json:"inputs"`
	Leaderless  bool   `json:"leaderless"`
	Predicate   string `json:"predicate"`
}

// catalogBody is the /v1/catalog response.
type catalogBody struct {
	// Specs lists the resolvable spec head tokens (builtin plus
	// user-registered constructor names); each is a valid spec prefix.
	Specs []string `json:"specs"`
	// SpecUsage documents the argument grammar of the builtin specs
	// ("flock:η", "mod:m:r[,r...]", ...). Entries are usage templates,
	// not resolvable specs.
	SpecUsage []string `json:"specUsage"`
	// Kinds lists the analysis kinds /v1/analyze accepts.
	Kinds []engine.Kind `json:"kinds"`
	// Catalog is the built-in protocol collection.
	Catalog []catalogEntry `json:"catalog"`
}

// NewHandler mounts the API on a fresh mux backed by eng. When
// Options.Metrics is set, GET /metrics serves the registry with the
// engine's, the handler's and (under Cluster) the coordinator's collectors
// registered.
func NewHandler(eng *engine.Engine, opts Options) http.Handler {
	h, _ := newHandler(eng, opts)
	return h
}

// newHandler is NewHandler plus the handler's own instrumentation, which
// in-package tests assert against directly.
func newHandler(eng *engine.Engine, opts Options) (http.Handler, *Metrics) {
	opts = opts.withDefaults()
	sm := newServeMetrics()
	opts.sm = sm
	var lim *govern.Limiter
	if opts.RateLimit > 0 {
		lim = govern.NewLimiter(govern.LimiterOptions{Rate: opts.RateLimit, Burst: float64(opts.RateBurst)})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", sm.instrumented("/v1/analyze", rateLimited(lim, sm, "/v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		handleAnalyze(eng, opts, w, r)
	})))
	mux.HandleFunc("POST /v1/sweep", sm.instrumented("/v1/sweep", rateLimited(lim, sm, "/v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		handleSweep(eng, opts, w, r)
	})))
	mux.HandleFunc("GET /v1/catalog", sm.instrumented("/v1/catalog", rateLimited(lim, sm, "/v1/catalog", func(w http.ResponseWriter, r *http.Request) {
		handleCatalog(eng, w)
	})))
	mux.HandleFunc("GET /healthz", sm.instrumented("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	if opts.Cluster != nil {
		mountCluster(mux, opts)
	}
	if opts.Metrics != nil {
		eng.Metrics().Register(opts.Metrics)
		sm.Register(opts.Metrics)
		if opts.Cluster != nil {
			opts.Cluster.Metrics().Register(opts.Metrics)
		}
		if st := eng.ArtifactStore(); st != nil {
			st.Metrics().Register(opts.Metrics)
		}
		if opts.Journal != nil {
			opts.Journal.Metrics().Register(opts.Metrics)
		}
		mux.Handle("GET /metrics", sm.instrumented("/metrics", opts.Metrics.Handler().ServeHTTP))
	}
	return mux, sm
}

func handleAnalyze(eng *engine.Engine, opts Options, w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, maxAnalyzeBody)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("reading request: %v", err)})
		return
	}
	// req.Protocol.Inline aliases body; nothing keeps it past the handler.
	req, err := engine.DecodeRequest(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decoding request: %v", err)})
		return
	}
	if shed(eng, opts, "/v1/analyze", string(req.Kind), w, r) {
		opts.RequestLog.Warn("request shed", "path", "/v1/analyze", "kind", req.Kind)
		return
	}

	timeout := opts.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if timeout > opts.MaxTimeout {
		timeout = opts.MaxTimeout
	}
	// The engine applies TimeoutMillis itself, but clamping here enforces
	// the server-side ceiling whatever the request asked for.
	req.TimeoutMillis = 0
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	start := time.Now()
	res, err := eng.Do(ctx, req)
	status := http.StatusOK
	if err == nil {
		err = writeResult(w, res)
	}
	switch {
	case err == nil:
	case errors.Is(err, engine.ErrBadRequest):
		status = http.StatusBadRequest
		writeJSON(w, status, errorBody{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
		writeJSON(w, status, errorBody{Error: err.Error()})
	case errors.Is(err, context.Canceled):
		// The client went away; nothing useful to write.
		status = 0
	default:
		status = http.StatusInternalServerError
		writeJSON(w, status, errorBody{Error: err.Error()})
	}

	attrs := []any{
		"path", "/v1/analyze",
		"kind", req.Kind,
		"status", status,
		"durationMillis", time.Since(start).Milliseconds(),
	}
	if res != nil {
		if res.Protocol != nil {
			attrs = append(attrs, "protocol", res.Protocol.Hash)
		}
		attrs = append(attrs, "cacheHit", res.CacheHit)
	}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	opts.RequestLog.Info("analyze", attrs...)
}

// handleSweep streams a sweep: the spec is validated and expanded up
// front (client errors are plain 400 JSON), then sweep.AppendRow rows flow
// in grid order, each cell row encoded once by runSweep for the journal
// and the client alike, and reaching the client at most streamFlushDelay
// after its cell finishes (see rowWriter). Cancellation is end to end:
// when the client disconnects, the request context cancels the sweep,
// which interrupts in-flight cells and skips the rest.
func handleSweep(eng *engine.Engine, opts Options, w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("reading request: %v", err)})
		return
	}
	spec, err := sweep.ParseSpec(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	mode := "local"
	if opts.Cluster != nil {
		mode = "cluster"
	} else if shed(eng, opts, "/v1/sweep", "", w, r) {
		// Coordinators never shed sweeps: fan-out is network-bound, and the
		// workers' own 503s already backpressure the dispatcher.
		opts.RequestLog.Warn("request shed", "path", "/v1/sweep", "sweep", spec.Name)
		return
	}
	// Open the journal before the 200 commits: a concurrent duplicate
	// submission of the same spec must fail as a plain 409, not corrupt
	// the write-ahead file mid-stream.
	var jsweep *journal.Sweep
	if opts.Journal != nil {
		specHash, herr := sweep.SpecHash(spec)
		if herr != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: herr.Error()})
			return
		}
		jsweep, err = opts.Journal.Sweep(specHash)
		if err != nil {
			writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
			return
		}
		defer jsweep.Close()
	}
	opts.sm.SweepsInflight.Inc()
	defer opts.sm.SweepsInflight.Dec()
	ctx, cancel := context.WithTimeout(r.Context(), opts.SweepTimeout)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	rw := newRowWriter(w)
	// The summary row is written last and leaves with close, the handler's
	// last write.
	defer rw.close()
	writeRow := func(typ string, row []byte) {
		opts.sm.StreamRows.WithLabelValues(typ).Inc()
		rw.writeRow(row)
	}
	// The cell rows' counter child is resolved once per sweep, at the first
	// cell, so a sweep that streams none leaves the family as it found it.
	var cellRows *metrics.Counter
	writeCell := func(row []byte) {
		if cellRows == nil {
			cellRows = opts.sm.StreamRows.WithLabelValues("cell")
		}
		cellRows.Inc()
		rw.writeRow(row)
	}

	start := time.Now()
	res, err := runSweep(ctx, eng, opts, spec, jsweep, writeCell)
	if res == nil {
		// Only reachable if the sweep cannot start (re-expansion, which
		// ParseSpec precludes, or the cluster routing); report it as a stream row since the 200 header is
		// already committed.
		writeRow("error", sweep.AppendRow(nil, sweep.StreamRow{Type: "error", Error: err.Error()}))
		opts.RequestLog.Info("sweep", "path", "/v1/sweep", "sweep", spec.Name,
			"mode", mode, "status", http.StatusOK, "error", err.Error())
		return
	}
	// On cancellation or timeout the partial summary still goes out
	// (harmless if the client is gone).
	writeRow("summary", sweep.AppendRow(nil, sweep.StreamRow{Type: "summary", Summary: res}))
	opts.RequestLog.Info("sweep",
		"path", "/v1/sweep",
		"sweep", spec.Name,
		"mode", mode,
		"cells", res.TotalCells,
		"completed", res.Completed,
		"failed", res.Failed,
		"status", http.StatusOK,
		"durationMillis", time.Since(start).Milliseconds(),
	)
}

// streamFlushDelay is the longest a sweep row, or the 200 header, waits
// in the stream buffer before it is flushed. Rows finishing within it of
// each other leave in one socket write.
const streamFlushDelay = 5 * time.Millisecond

// streamBufferSize bounds a stream's row buffer: a row that would take it
// past this size first writes the buffer out. 32 KiB holds about fifty
// cell rows, two grids of the end-to-end benchmark. A single larger row
// grows the buffer to fit it, and is written out alone.
const streamBufferSize = 32 << 10

// streamBuffers recycles the row buffers of finished streams, which would
// otherwise be the largest allocation a sweep of cached cells makes.
var streamBuffers = sync.Pool{New: func() any {
	b := make([]byte, 0, streamBufferSize)
	return &b
}}

// rowWriter collects encoded sweep rows in a buffer of its own and writes
// it out in one Write per flush instead of one per row: the first row
// after a flush arms one timer, which writes and flushes whatever is
// waiting when it fires, and close writes the rest. The timer goroutine
// and the handler share mu, so the ResponseWriter is never touched
// concurrently, and close makes sure it is not touched after the handler
// returns.
//
// A write that panics on the timer goroutine (http.ErrAbortHandler, say)
// must not take the process down: flush recovers the panic and keeps it,
// and the handler's next writeRow or close raises it again, so net/http
// still aborts the connection.
type rowWriter struct {
	mu     sync.Mutex
	w      http.ResponseWriter
	pooled *[]byte // the buffer close returns to streamBuffers
	buf    []byte
	timer  *time.Timer
	armed  bool
	closed bool
	broken any // the panic a timer flush recovered
}

// newRowWriter commits the 200 header; it goes out with the first flush.
func newRowWriter(w http.ResponseWriter) *rowWriter {
	w.WriteHeader(http.StatusOK)
	p := streamBuffers.Get().(*[]byte)
	rw := &rowWriter{w: w, pooled: p, buf: (*p)[:0], armed: true}
	rw.timer = time.AfterFunc(streamFlushDelay, rw.flush)
	return rw
}

// writeRow buffers one encoded row, first writing the buffer out if the
// row would overflow it. A panicking write releases mu on its way out.
func (rw *rowWriter) writeRow(row []byte) {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	rw.rethrow()
	if len(rw.buf)+len(row) > streamBufferSize {
		rw.write()
	}
	rw.buf = append(rw.buf, row...)
	if !rw.armed {
		rw.armed = true
		rw.timer.Reset(streamFlushDelay)
	}
}

// flush runs on the timer goroutine: it writes and flushes what is
// waiting, keeping a panic for the handler to raise.
func (rw *rowWriter) flush() {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if rw.closed || rw.broken != nil {
		return
	}
	defer func() {
		if p := recover(); p != nil {
			rw.broken = p
		}
	}()
	rw.armed = false
	rw.write()
	_ = http.NewResponseController(rw.w).Flush()
}

// close stops the timer, writes what is left and gives the buffer back;
// once it returns, no flush touches the ResponseWriter.
func (rw *rowWriter) close() {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	rw.closed = true
	rw.timer.Stop()
	rw.rethrow()
	rw.write()
	if cap(rw.buf) == streamBufferSize {
		*rw.pooled = rw.buf
		streamBuffers.Put(rw.pooled)
	}
	rw.buf = nil
}

// write hands the buffered rows to the ResponseWriter in one Write. Write
// errors mean the client went away; the request context then cancels the
// sweep, so there is nothing to handle. The buffer is emptied first, so
// rows a panicking Write took with it are not written again.
func (rw *rowWriter) write() {
	if len(rw.buf) == 0 {
		return
	}
	b := rw.buf
	rw.buf = rw.buf[:0]
	_, _ = rw.w.Write(b)
}

// rethrow raises, on the handler goroutine, the panic a timer flush
// recovered.
func (rw *rowWriter) rethrow() {
	if rw.broken != nil {
		panic(rw.broken)
	}
}

func handleCatalog(eng *engine.Engine, w http.ResponseWriter) {
	body := catalogBody{
		Specs:     eng.Registry().Names(),
		SpecUsage: protocols.SpecHelp(),
		Kinds:     engine.Kinds,
	}
	cat := protocols.Catalog()
	keys := make([]string, 0, len(cat))
	for k := range cat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := cat[k]
		body.Catalog = append(body.Catalog, catalogEntry{
			Key:         k,
			Name:        e.Protocol.Name(),
			States:      e.Protocol.NumStates(),
			Transitions: e.Protocol.NumTransitions(),
			Inputs:      e.Protocol.NumInputs(),
			Leaderless:  e.Protocol.Leaderless(),
			Predicate:   e.Pred.String(),
		})
	}
	writeJSON(w, http.StatusOK, body)
}

// maxAnalyzeBody caps a /v1/analyze request body.
const maxAnalyzeBody = 1 << 20

// readBody reads the whole request body, failing once it passes limit
// bytes. It reads as io.ReadAll does, but a body that declares its length
// starts in a buffer of that size plus one byte, so reading it and then
// its end allocates once.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	size := int64(512)
	if n := r.ContentLength; n >= 0 && n < limit {
		size = n + 1
	}
	b := make([]byte, 0, size)
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// writeResult writes a 200 with res as its JSON body, the bytes
// encoding/json's Encoder writes with HTML escaping off. A result that
// does not encode is returned as the error, before anything is written.
func writeResult(w http.ResponseWriter, res *engine.Result) error {
	b, err := res.AppendJSON(nil)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(b, '\n'))
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
