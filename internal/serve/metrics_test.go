package serve

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/metrics/testutil"
	"repro/internal/store"
)

// TestMetricsShedIncrementsExactly503Counter: a shed analyze request lands
// in the shed counter for its endpoint (and nowhere else) and in the
// request counter under status 503.
func TestMetricsShedIncrementsExactly503Counter(t *testing.T) {
	eng := engine.New()
	eng.SetSlots(1)
	h, sm := newHandler(eng, Options{MaxQueue: 1})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	occupy := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze",
			bytes.NewBufferString(spinnerAnalyze)).WithContext(ctx)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	go occupy() // takes the slot
	go occupy() // queues
	deadline := time.Now().Add(30 * time.Second)
	for {
		busy, _, queued := eng.SlotStats()
		if busy == 1 && queued >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("saturation never reached: busy=%d queued=%d", busy, queued)
		}
		time.Sleep(5 * time.Millisecond)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/analyze",
		bytes.NewBufferString(spinnerAnalyze)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated analyze: status %d, want 503", rec.Code)
	}

	if got := testutil.ToFloat64(sm.Shed.WithLabelValues("/v1/analyze")); got != 1 {
		t.Errorf("shed{/v1/analyze} = %v, want 1", got)
	}
	if got := testutil.ToFloat64(sm.Shed.WithLabelValues("/v1/sweep")); got != 0 {
		t.Errorf("shed{/v1/sweep} = %v, want 0 — the shed must hit exactly its endpoint", got)
	}
	if got := testutil.ToFloat64(sm.Requests.WithLabelValues("/v1/analyze", "503")); got != 1 {
		t.Errorf("requests{/v1/analyze,503} = %v, want 1", got)
	}
	if got := sm.SweepsInflight.Value(); got != 0 {
		t.Errorf("sweeps_inflight = %v, want 0 — a shed sweep never starts", got)
	}
}

// TestMetricsSweepInflightAndRows drives a streaming sweep over a real
// listener: the in-flight gauge reads 1 while rows are flowing, drops back
// to 0 when the handler returns, and the row counter matches the stream
// row for row.
func TestMetricsSweepInflightAndRows(t *testing.T) {
	h, sm := newHandler(engine.New(), Options{})
	srv := httptest.NewServer(h)
	defer srv.Close()

	// The cells must cost real compute: with instant cells (e.g. bounds)
	// the whole stream fits the socket buffer and the handler can return
	// before the client reads row 1, so the mid-stream gauge read races.
	// Seeded simulate cells mean later rows don't exist yet when the first
	// one arrives — the handler is necessarily still in flight.
	spec := `{"name":"rows","protocols":[{"spec":"flock:{N}"}],"params":[{"from":3,"to":22}],` +
		`"kinds":["simulate"],"sizes":[128],"options":{"seed":5,"runs":1000}}`
	resp, err := srv.Client().Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first row: %v", sc.Err())
	}
	// First row read, stream still open: the sweep is in flight.
	if got := sm.SweepsInflight.Value(); got != 1 {
		t.Errorf("sweeps_inflight mid-stream = %v, want 1", got)
	}
	rows := 1
	for sc.Scan() {
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 21 { // 20 cells + summary
		t.Fatalf("streamed %d rows, want 21", rows)
	}

	// The gauge must return to zero once the handler finishes (the last
	// byte can reach the client marginally before the deferred Dec runs).
	deadline := time.Now().Add(10 * time.Second)
	for sm.SweepsInflight.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sweeps_inflight stuck at %v after stream end", sm.SweepsInflight.Value())
		}
		time.Sleep(2 * time.Millisecond)
	}

	want := `
		# HELP pp_serve_stream_rows_total NDJSON rows streamed by /v1/sweep, by row type.
		# TYPE pp_serve_stream_rows_total counter
		pp_serve_stream_rows_total{type="cell"} 20
		pp_serve_stream_rows_total{type="summary"} 1
	`
	if err := testutil.CollectAndCompare(sm.StreamRows, strings.NewReader(want)); err != nil {
		t.Error(err)
	}
}

// TestMetricsEndpointCounters pins the per-endpoint request counter across
// status classes: 200s, a 400, and a 404 heartbeat.
func TestMetricsEndpointCounters(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	h, sm := newHandler(engine.New(), Options{Cluster: coord})
	do := func(method, path, body string) {
		req := httptest.NewRequest(method, path, bytes.NewBufferString(body))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	do(http.MethodGet, "/healthz", "")
	do(http.MethodGet, "/v1/catalog", "")
	do(http.MethodPost, "/v1/analyze", `{"kind":"bounds","states":4}`)
	do(http.MethodPost, "/v1/analyze", `{"kind":"nope"}`)
	do(http.MethodPost, "/v1/cluster/heartbeat", `{"id":"ghost"}`)

	for _, c := range []struct {
		endpoint, status string
		want             float64
	}{
		{"/healthz", "200", 1},
		{"/v1/catalog", "200", 1},
		{"/v1/analyze", "200", 1},
		{"/v1/analyze", "400", 1},
		{"/v1/cluster/heartbeat", "404", 1},
	} {
		if got := testutil.ToFloat64(sm.Requests.WithLabelValues(c.endpoint, c.status)); got != c.want {
			t.Errorf("requests{%s,%s} = %v, want %v", c.endpoint, c.status, got, c.want)
		}
	}
}

// TestMetricsEndpointServesAllThreeLayers mounts GET /metrics and checks
// the exposition carries engine, serve and cluster families in one scrape,
// including the /metrics request itself being counted.
func TestMetricsEndpointServesAllThreeLayers(t *testing.T) {
	reg := metrics.NewRegistry()
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	coord.Register("w1", "http://w1")
	h := NewHandler(engine.New(), Options{Cluster: coord, Metrics: reg})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	vals, err := testutil.ParseText(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if vals[`pp_cluster_members{state="active"}`] != 1 {
		t.Errorf("cluster layer missing from scrape: %v", vals[`pp_cluster_members{state="active"}`])
	}
	if _, ok := vals["pp_engine_slots_capacity"]; !ok {
		t.Error("engine layer missing from scrape")
	}
	if _, ok := vals["pp_serve_sweeps_inflight"]; !ok {
		t.Error("serve layer missing from scrape")
	}

	// A second scrape sees the first one counted under its own endpoint.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	vals2, err := testutil.ParseText(rec2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if vals2[`pp_serve_requests_total{endpoint="/metrics",status="200"}`] != 1 {
		t.Error("the /metrics endpoint must count its own requests")
	}
}

// TestDocumentedMetricsRegistered: every full pp_* family name the README
// and docs/*.md tell operators to watch is registered by a handler mounted
// with all four collector sets (engine, artifact store, journal and
// coordinator), and every pp_* family that handler registers is named
// somewhere in those docs. Wildcards and prefixes (pp_store_*,
// pp_store_gc_*) are not names and are skipped.
func TestDocumentedMetricsRegistered(t *testing.T) {
	eng := engine.New()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng.SetArtifactStore(st)
	js, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(eng, Options{
		Cluster: cluster.NewCoordinator(cluster.CoordinatorOptions{}),
		Journal: js,
		Metrics: metrics.NewRegistry(),
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	registered := map[string]bool{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			registered[f[2]] = true
		}
	}

	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`pp_[a-z0-9_]+`)
	documented := map[string]bool{}
	for _, path := range append(docs, "../../README.md") {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range name.FindAllString(string(text), -1) {
			if strings.HasSuffix(n, "_") {
				continue // a prefix or wildcard, not a family
			}
			documented[n] = true
			if !registered[n] {
				t.Errorf("%s names %s, which no collector registers", filepath.Base(path), n)
			}
		}
	}
	if len(documented) == 0 {
		t.Fatal("no pp_* family names found in the docs")
	}
	for n := range registered {
		if strings.HasPrefix(n, "pp_") && !documented[n] {
			t.Errorf("%s is registered but named nowhere in README.md or docs/*.md", n)
		}
	}
}
