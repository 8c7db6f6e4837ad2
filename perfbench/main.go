// Command perfbench is the end-to-end benchmark of ppserve. It drives a
// ppserve process over loopback HTTP with one of three seeded workloads
// (see workloads.go), checks every answer, and prints one JSON result
// line:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones a client sees:
// median latency, throughput, and the set-up time (median of several
// full set-ups, each starting ppserve and warming it).
// With -trace 1 they are per-layer: spans perfbench records around each
// call (first body byte, body, decode), the engine time ppserve reports
// in each answer, and deltas of ppserve's /metrics counters over the
// measured window. perfbench/run.sh builds ppserve and this program and
// runs it; see the README next to it.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// A run sets the server up again and again, at least setupRounds times
// and for at least setupSpan; the reported set-up time is the median of
// the rounds, each scaled to the reference speed by the calibration timed
// just before it (see calib.go), and the last server is the one measured. The span spreads
// the cheap set-ups (tens of milliseconds) over stretches of the host's
// changing speed, as the expensive ones are spread by their length.
const (
	setupRounds = 5
	setupSpan   = 2 * time.Second
)

// warmUp is how long the measured server first serves the workload's own
// request stream, untimed, so that its heap and caches reach the state
// they keep for the rest of the run.
const warmUp = 2 * time.Second

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	ppserve  string
	workdir  string
	traceOut string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: miss, disk or sweep")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.StringVar(&cfg.ppserve, "ppserve", "", "path of the ppserve binary to drive")
	fs.StringVar(&cfg.workdir, "workdir", "", "directory for the run's scratch files (removed afterwards)")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, also write every span as JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[cfg.workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", cfg.workload)
	case trace != 0 && trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	case cfg.ppserve == "" || cfg.workdir == "":
		return errors.New("-ppserve and -workdir are required")
	case cfg.seconds <= 0:
		return errors.New("-seconds must be positive")
	}
	cfg.trace = trace == 1
	// The client and ppserve (see startServer) each run Go code on one
	// thread, and run.sh pins both to one CPU. The closed loop keeps one
	// of them busy at a time; more threads would only add scheduler and
	// garbage-collector threads competing for that CPU.
	runtime.GOMAXPROCS(1)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir := filepath.Join(cfg.workdir, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rep, err := bench(ctx, cfg, w, dir)
	if err != nil {
		return err
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// bench sets the workload's server up repeatedly, measures the last one
// for cfg.seconds and computes the metrics.
func bench(ctx context.Context, cfg config, w workload, dir string) (*report, error) {
	var (
		srv    *server
		setups []float64
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for round, begin := 0, time.Now(); round < setupRounds || time.Since(begin) < setupSpan; round++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		roundDir := filepath.Join(dir, fmt.Sprintf("setup-%d", round))
		if err := os.MkdirAll(roundDir, 0o755); err != nil {
			return nil, err
		}
		var c []float64
		for range 3 {
			c = append(c, float64(calibrate(nil)))
		}
		t0 := time.Now()
		s, err := setUp(ctx, cfg, w, roundDir)
		if err != nil {
			return nil, err
		}
		srv = s
		setups = append(setups, time.Since(t0).Seconds()*float64(calibRef)/median(c))
	}

	stream := w.next(cfg.seed)
	var next int64
	for end := time.Now().Add(warmUp); time.Now().Before(end); next++ {
		if s := call(ctx, srv, stream(next)); s.err != nil || s.wrong != nil {
			return nil, fmt.Errorf("warm-up request %d: %v", next, errors.Join(s.err, s.wrong))
		}
	}

	before, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	samples, calib := measure(ctx, srv, stream, next, time.Now(), d)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	after, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}

	rep := &report{Correct: true, Attempted: len(samples), Metrics: map[string]metric{}}
	var ok []sample
	for _, s := range samples {
		switch {
		case s.wrong != nil:
			rep.Correct = false
			rep.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", s.wrong)
		case s.err != nil:
			rep.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: request failed:", s.err)
		default:
			ok = append(ok, s)
		}
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("no request of %d succeeded", len(samples))
	}
	parts := byPart(ok, len(calib))
	scale := scales(calib)
	p50 := func(p []sample) float64 { return quantiles(p, func(s sample) time.Duration { return s.total })(0.5) }
	latency := atRef(parts, scale, false, p50)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests (%d failed) in %v, p50 %.3fms, %d set-ups, median %.3fs, all at reference speed; host slowdown %.2f×\n",
		cfg.workload, cfg.seed, len(samples), rep.Failed, d, latency, len(setups), median(setups), 1/median(scale))
	if !cfg.trace {
		rep.Metrics["latency_p50_ms"] = metric{latency, "ms"}
		rep.Metrics["throughput_rps"] = metric{atRef(parts, scale, true, throughput), "1/s"}
		rep.Metrics["setup_s"] = metric{median(setups), "s"}
		return rep, nil
	}

	overall := func(field func(sample) time.Duration) float64 { return quantiles(ok, field)(0.5) }
	rep.Metrics["traced_latency_p50_ms"] = metric{latency, "ms"}
	rep.Metrics["engine_p50_ms"] = metric{overall(func(s sample) time.Duration { return s.engine }), "ms"}
	rep.Metrics["serve_p50_ms"] = metric{overall(func(s sample) time.Duration { return s.total - s.engine }), "ms"}
	rep.Metrics["first_byte_p50_ms"] = metric{overall(func(s sample) time.Duration { return s.firstByte }), "ms"}
	rep.Metrics["decode_p50_ms"] = metric{overall(func(s sample) time.Duration { return s.decode }), "ms"}
	for name, v := range layerCounters(before, after) {
		rep.Metrics[name] = v
	}
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, samples); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// setUp starts a server for the workload and sends its warm-up requests,
// all of which must succeed with correct answers.
func setUp(ctx context.Context, cfg config, w workload, dir string) (*server, error) {
	srv, err := startServer(ctx, cfg.ppserve, w.args(dir))
	if err != nil {
		return nil, err
	}
	for _, r := range w.warm(cfg.seed) {
		if s := call(ctx, srv, r); s.err != nil || s.wrong != nil {
			srv.stop()
			return nil, fmt.Errorf("set-up request to %s: %v", r.path, errors.Join(s.err, s.wrong))
		}
	}
	return srv, nil
}

// layerCounters turns ppserve's counter deltas over the measured window
// into per-layer metrics: the engine's artifact cache, the disk artifact
// store, the engine's time per analysis and the sweep stream.
func layerCounters(before, after series) map[string]metric {
	delta := func(name string, labels ...string) float64 {
		return after.sum(name, labels...) - before.sum(name, labels...)
	}
	hits := delta("pp_engine_cache_hits_total")
	misses := delta("pp_engine_cache_misses_total")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	perAnalysis := 0.0
	if n := delta("pp_engine_request_duration_seconds_count"); n > 0 {
		perAnalysis = 1000 * delta("pp_engine_request_duration_seconds_sum") / n
	}
	return map[string]metric{
		"engine_cache_hits":      {hits, "count"},
		"engine_cache_misses":    {misses, "count"},
		"engine_cache_hit_ratio": {ratio, "ratio"},
		"engine_cache_evictions": {delta("pp_engine_cache_evictions_total"), "count"},
		"engine_mean_ms":         {perAnalysis, "ms"},
		"store_disk_hits":        {delta("pp_store_reads_total", `result="hit"`), "count"},
		"store_writes":           {delta("pp_store_writes_total", `result="ok"`), "count"},
		"stream_cell_rows":       {delta("pp_serve_stream_rows_total", `type="cell"`), "count"},
	}
}

// sample is the record of one measured call. Durations count from the
// moment the request was sent.
type sample struct {
	start     time.Time
	part      int           // part of the measured window it was sent in
	pause     time.Duration // calibration timed just before it was sent
	firstByte time.Duration // first response body byte arrived
	total     time.Duration // whole response body read: the latency
	decode    time.Duration // client-side decoding and checking, after total
	engine    time.Duration // engine-side time ppserve reported
	err       error         // transport failure or non-200 status
	wrong     error         // a 200 answer that failed its check
}

// measure sends the stream's requests one after another, from index
// first, for the window [start, start+d); the request in flight at its
// end then completes and counts. Each sample notes the part of the window
// it was sent in. Before a request sent at least calibEvery after the
// previous timing, measure times the calibration (see calib.go); it
// returns the timings of each part as calib[part].
func measure(ctx context.Context, srv *server, stream func(int64) request, first int64, start time.Time, d time.Duration) ([]sample, [][]time.Duration) {
	calib := make([][]time.Duration, max(int(d/partLen), 1))
	n := len(calib)
	samples := make([]sample, 0, 1<<15)
	var timed time.Time
	for i := first; ctx.Err() == nil; i++ {
		now := time.Now()
		at := now.Sub(start)
		if at >= d {
			break
		}
		p := min(int(at*time.Duration(n)/d), n-1)
		var pause time.Duration
		if now.Sub(timed) >= calibEvery {
			calib[p] = append(calib[p], calibrate(srv.cmd.Process))
			timed = time.Now()
			pause = timed.Sub(now)
		}
		s := call(ctx, srv, stream(i))
		s.part, s.pause = p, pause
		samples = append(samples, s)
	}
	return samples, calib
}

// call sends one request, reads the whole answer and checks it.
func call(ctx context.Context, srv *server, r request) sample {
	s := sample{start: time.Now()}
	resp, err := srv.post(ctx, r.path, r.body)
	if err != nil {
		s.err = err
		return s
	}
	fb := &firstByteReader{r: resp.Body}
	body, err := io.ReadAll(fb)
	resp.Body.Close()
	end := time.Now()
	s.total = end.Sub(s.start)
	s.firstByte = fb.at.Sub(s.start)
	switch {
	case err != nil:
		s.err = fmt.Errorf("reading %s answer: %w", r.path, err)
		return s
	case resp.StatusCode != 200:
		s.err = fmt.Errorf("%s: %w %d: %.200s", r.path, errStatus, resp.StatusCode, body)
		return s
	}
	ms, err := r.check(body)
	s.decode = time.Since(end)
	s.wrong = err
	s.engine = time.Duration(ms * float64(time.Millisecond))
	return s
}

// errStatus reports a non-200 answer.
var errStatus = errors.New("unexpected HTTP status")

// firstByteReader notes when the first body byte arrived.
type firstByteReader struct {
	r  io.Reader
	at time.Time
}

func (f *firstByteReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && f.at.IsZero() {
		f.at = time.Now()
	}
	return n, err
}

// writeSpans writes each sample as a request span with its child spans
// (first byte, body, decode) as JSON lines, times in microseconds from
// the first request.
func writeSpans(path string, samples []sample) error {
	type span struct {
		ID     int    `json:"id"`
		Parent int    `json:"parent,omitempty"`
		Name   string `json:"name"`
		Start  int64  `json:"startUs"`
		End    int64  `json:"endUs"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range samples {
		at := s.start.Sub(samples[0].start).Microseconds()
		us := func(d time.Duration) int64 { return at + d.Microseconds() }
		id := 4*i + 1
		for _, sp := range []span{
			{ID: id, Name: "request", Start: at, End: us(s.total + s.decode)},
			{ID: id + 1, Parent: id, Name: "first_byte", Start: at, End: us(s.firstByte)},
			{ID: id + 2, Parent: id, Name: "body", Start: us(s.firstByte), End: us(s.total)},
			{ID: id + 3, Parent: id, Name: "decode", Start: us(s.total), End: us(s.total + s.decode)},
		} {
			if err := enc.Encode(sp); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
