// Command ppserve is the analysis-engine HTTP daemon: every analysis the
// pp library offers (simulation, exact verification, stable sets, pumping
// certificates, saturation, realisable bases, bounds, cover lengths) and
// batch scenario sweeps behind one JSON API.
//
// Usage:
//
//	ppserve                          # listen on :8080
//	ppserve -addr 127.0.0.1:9000 -timeout 10s -max-timeout 1m -sweep-timeout 30m
//	ppserve -pprof localhost:6060    # opt-in net/http/pprof for profiling
//	ppserve -metrics localhost:9090  # /metrics on its own scrape address too
//	ppserve -coordinator             # cluster coordinator: fans sweeps out
//	ppserve -worker -join http://coordinator:8080   # cluster worker
//	ppserve -journal-dir DIR -artifact-dir DIR      # durable: resumable sweeps,
//	                                                # disk-backed artifact cache
//	ppserve -rate-limit 10 -rate-burst 20           # per-client 429 + Retry-After
//	ppserve -artifact-dir DIR -artifact-max-bytes 1073741824   # LRU artifact GC
//	ppserve -journal-dir DIR -journal-retain 168h -journal-max-bytes 268435456
//	                                 # retire completed sweep WALs at startup
//	                                 # and whenever a sweep completes
//
// Endpoints:
//
//	POST /v1/analyze   {"kind":"simulate","protocol":{"spec":"flock:8"},"input":[20]}
//	POST /v1/sweep     sweep spec in, NDJSON stream out (one row per cell)
//	GET  /v1/catalog   resolvable specs + built-in protocol zoo
//	GET  /healthz      liveness probe
//	GET  /metrics      Prometheus text exposition (engine, serve, cluster collectors)
//	POST /v1/cluster/register, /v1/cluster/heartbeat, /v1/cluster/deregister
//	GET  /v1/cluster/members        (coordinator mode only)
//
// Requests are handled concurrently against a shared engine whose
// content-hash cache memoizes per-protocol artifacts, so repeated analyses
// of the same protocol are near-free. Each analyze request runs under a
// deadline (its own timeoutMillis, clamped to -max-timeout; else
// -timeout); sweeps run under -sweep-timeout, stream one NDJSON row per
// completed cell, and stop when the client disconnects. When every
// execution slot is busy and -max-queue requests already wait, further
// requests are shed with 503 + Retry-After instead of queueing without
// bound.
//
// In cluster mode a -coordinator process fans each /v1/sweep out across
// the workers that joined it (-worker -join URL), routing cell ranges by
// protocol content hash and retrying failed ranges on survivors; the
// merged stream is the one a single process would have produced. On
// SIGTERM a worker drains gracefully: it deregisters from the coordinator,
// finishes its in-flight requests, and exits.
//
// With -journal-dir every sweep is write-ahead logged: a killed server,
// restarted over the same directory, resumes the sweep on resubmission
// (replayed cells verbatim, only the remainder recomputed) and the
// canonical stream is byte-identical to a never-crashed run. With
// -artifact-dir the engine's memoized artifacts persist to disk, so a
// restarted node serves repeated protocols without recomputing them. See
// docs/api.md for the full HTTP reference and docs/operations.md for
// durability and fault injection.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() { cli.Main("ppserve", run) }

func run(args []string) error {
	fs := flag.NewFlagSet("ppserve", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":8080", "listen address")
		timeout       = fs.Duration("timeout", 30*time.Second, "default per-request deadline")
		maxTimeout    = fs.Duration("max-timeout", 2*time.Minute, "ceiling for request-supplied deadlines")
		sweepTimeout  = fs.Duration("sweep-timeout", 10*time.Minute, "deadline for a whole /v1/sweep request")
		sweepWorkers  = fs.Int("sweep-workers", 0, "worker-pool size per sweep (0 = GOMAXPROCS)")
		pprofAddr     = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty = disabled")
		metricsAddr   = fs.String("metrics", "", "additionally serve GET /metrics on its own address (e.g. localhost:9090); the API address always serves /metrics")
		slots         = fs.Int("slots", 0, "engine execution slots (0 = GOMAXPROCS)")
		maxQueue      = fs.Int("max-queue", 0, "waiting requests before 503 shedding kicks in (0 = 2x slots, -1 = never shed)")
		logRequests   = fs.Bool("log-requests", false, "emit one structured log line per request on stderr")
		coordinator   = fs.Bool("coordinator", false, "run as cluster coordinator: accept worker registrations, fan sweeps out")
		workerMode    = fs.Bool("worker", false, "run as cluster worker: join the coordinator at -join")
		join          = fs.String("join", "", "coordinator base URL to register with (worker mode)")
		advertise     = fs.String("advertise", "", "base URL this worker advertises to the coordinator (default: derived from -addr)")
		workerID      = fs.String("worker-id", "", "stable worker identity (default: hostname-pid)")
		heartbeatTTL  = fs.Duration("heartbeat-ttl", cluster.DefaultTTL, "worker lease duration; workers heartbeat at a third of it (coordinator mode)")
		rangeCells    = fs.Int("range-cells", 0, "cells per dispatched range, the retry granularity (coordinator mode; 0 = 64)")
		rangeTimeout  = fs.Duration("range-timeout", 0, "flat per-range dispatch deadline (coordinator mode; 0 = 2m)")
		journalDir    = fs.String("journal-dir", "", "durable sweep journal directory: /v1/sweep logs completed cells, and a resubmitted spec resumes instead of recomputing")
		artifactDir   = fs.String("artifact-dir", "", "disk-backed artifact store directory behind the engine's in-memory cache; restarts serve repeated protocols from disk")
		rateLimit     = fs.Float64("rate-limit", 0, "per-client request rate (requests/second) on the public endpoints; over-budget requests get 429 + Retry-After (0 = unlimited)")
		rateBurst     = fs.Int("rate-burst", 0, "per-client burst allowance of -rate-limit (0 = 2x the rate, at least 1)")
		artifactMax   = fs.Int64("artifact-max-bytes", 0, "artifact store size budget: a write past it evicts least-recently-used artifacts until the store fits (0 = unbounded)")
		journalRetain = fs.Duration("journal-retain", 0, "delete completed sweep WALs older than this, at startup and whenever a sweep completes; in-progress sweeps are never touched (0 = keep forever)")
		journalMax    = fs.Int64("journal-max-bytes", 0, "journal directory size budget, enforced at startup and whenever a sweep completes: oldest completed WALs are deleted until the directory fits (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator && *workerMode {
		return errors.New("-coordinator and -worker are mutually exclusive")
	}
	if *workerMode && *join == "" {
		return errors.New("-worker requires -join")
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		pln, err := startPprof(*pprofAddr)
		if err != nil {
			ln.Close()
			return err
		}
		defer pln.Close()
	}

	eng := engine.New()
	if *slots > 0 {
		eng.SetSlots(*slots)
	}
	if *artifactDir != "" {
		st, err := store.Open(*artifactDir)
		if err != nil {
			ln.Close()
			return err
		}
		if *artifactMax > 0 {
			if err := st.EnableGC(*artifactMax); err != nil {
				ln.Close()
				return err
			}
		}
		eng.SetArtifactStore(st)
	}
	reg := metrics.NewRegistry()
	if *metricsAddr != "" {
		mln, err := startMetrics(*metricsAddr, reg)
		if err != nil {
			ln.Close()
			return err
		}
		defer mln.Close()
	}
	opts := serve.Options{
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		SweepTimeout:   *sweepTimeout,
		SweepWorkers:   *sweepWorkers,
		MaxQueue:       *maxQueue,
		RateLimit:      *rateLimit,
		RateBurst:      *rateBurst,
		Metrics:        reg,
	}
	if *journalDir != "" {
		js, err := journal.Open(*journalDir)
		if err != nil {
			ln.Close()
			return err
		}
		if err := js.SetRetention(journal.Retention{Retain: *journalRetain, MaxBytes: *journalMax}); err != nil {
			ln.Close()
			return err
		}
		opts.Journal = js
	}
	var logger *slog.Logger
	if *logRequests {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		opts.RequestLog = logger
	}
	if *coordinator {
		opts.Cluster = cluster.NewCoordinator(cluster.CoordinatorOptions{TTL: *heartbeatTTL})
		opts.ClusterDispatch = cluster.DispatchOptions{
			RangeCells:   *rangeCells,
			RangeTimeout: *rangeTimeout,
		}
	}

	var drain func(context.Context)
	if *workerMode {
		self := *advertise
		if self == "" {
			self = advertiseURL(ln.Addr())
		}
		id := *workerID
		if id == "" {
			host, _ := os.Hostname()
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		agent := &cluster.Agent{
			Coordinator: strings.TrimSuffix(*join, "/"),
			Self:        strings.TrimSuffix(self, "/"),
			ID:          id,
			Log:         logger,
		}
		actx, acancel := context.WithCancel(context.Background())
		defer acancel()
		go func() { _ = agent.Run(actx) }()
		// The SIGTERM drain: tell the coordinator to stop routing to us and
		// forget us, before the HTTP server finishes in-flight requests.
		drain = func(dctx context.Context) {
			acancel()
			if err := agent.Deregister(dctx); err != nil {
				fmt.Fprintf(os.Stderr, "ppserve: deregister: %v\n", err)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveOn(ctx, ln, eng, opts, drain)
}

// advertiseURL derives a worker's advertised base URL from its listen
// address, substituting loopback for an unspecified host (":8080" is
// dialable as itself only from the same machine anyway).
func advertiseURL(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	if ip := net.ParseIP(host); ip == nil || ip.IsUnspecified() {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// startPprof serves net/http/pprof on its own (normally loopback-only)
// listener until that listener is closed, so hot-path regressions can be
// profiled in place without exposing pprof on the API address.
func startPprof(addr string) (net.Listener, error) {
	pln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	fmt.Fprintf(os.Stderr, "ppserve: pprof on http://%s/debug/pprof/\n", pln.Addr())
	go func() {
		// DefaultServeMux carries the net/http/pprof handlers; the main API
		// server uses an explicit handler and is unaffected.
		if err := http.Serve(pln, nil); err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintf(os.Stderr, "ppserve: pprof server: %v\n", err)
		}
	}()
	return pln, nil
}

// startMetrics serves the Prometheus exposition on its own listener —
// -pprof's pattern, for deployments that keep the scrape target off the
// API address. NewHandler registers the collectors into reg; the dedicated
// listener serves the same registry.
func startMetrics(addr string, reg *metrics.Registry) (net.Listener, error) {
	mln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	fmt.Fprintf(os.Stderr, "ppserve: metrics on http://%s/metrics\n", mln.Addr())
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	go func() {
		if err := http.Serve(mln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintf(os.Stderr, "ppserve: metrics server: %v\n", err)
		}
	}()
	return mln, nil
}

// serveOn runs the daemon on an existing listener until ctx is cancelled,
// then shuts down gracefully: drain (announce departure to the coordinator,
// if any) runs first, then Shutdown stops accepting and waits for in-flight
// requests. Split from run so tests can drive a real server on an ephemeral
// port.
func serveOn(ctx context.Context, ln net.Listener, eng *engine.Engine, opts serve.Options, drain func(context.Context)) error {
	srv := &http.Server{
		Handler:           serve.NewHandler(eng, opts),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "ppserve: listening on %s\n", ln.Addr())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if drain != nil {
			drain(shutdownCtx)
		}
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
