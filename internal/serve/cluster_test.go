package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/sweep"
)

// spinnerAnalyze is a simulate request that burns a large fixed interaction
// budget without converging — a slot-occupying request for the shed tests.
const spinnerAnalyze = `{
  "kind": "simulate",
  "protocol": {"inline": {
    "name": "spinner",
    "states": [{"name": "a", "output": 0}, {"name": "b", "output": 1}],
    "transitions": [["a","a","b","b"], ["b","b","a","a"]],
    "inputs": {"x": "a"},
    "completeWithIdentity": true
  }},
  "input": [200],
  "maxSteps": 2000000000
}`

// TestShedWhenSaturated: with one execution slot busy and the waiting queue
// at its bound, further requests get an immediate 503 with Retry-After —
// fail-fast admission control instead of unbounded queueing.
func TestShedWhenSaturated(t *testing.T) {
	eng := engine.New()
	eng.SetSlots(1)
	h := NewHandler(eng, Options{MaxQueue: 1})

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

	rec, _ := post(t, h, "/v1/analyze", spinnerAnalyze)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated analyze: status %d, want 503: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 response must carry Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Errorf("503 body is not the JSON error envelope: %s", rec.Body)
	}

	// Local sweeps shed under the same condition.
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep",
		bytes.NewBufferString(`{"kinds":["bounds"],"params":[3]}`))
	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, req)
	if srec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated sweep: status %d, want 503", srec.Code)
	}

	// MaxQueue -1 disables shedding: the request queues instead (it would
	// block, so just check the admission decision directly).
	noShed := Options{MaxQueue: -1}.withDefaults()
	noShed.sm = newServeMetrics()
	if shed(eng, noShed, "/v1/analyze", "stable", httptest.NewRecorder(),
		httptest.NewRequest(http.MethodPost, "/v1/analyze", nil)) {
		t.Error("MaxQueue -1 must never shed")
	}
}

// TestClusterEndpoints drives the membership API over HTTP: register,
// heartbeat, drain, members, deregister, and the 404 rejoin signal.
func TestClusterEndpoints(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	h := NewHandler(engine.New(), Options{Cluster: coord})

	postJSON := func(path, body string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewBufferString(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	rec := postJSON("/v1/cluster/register", `{"id":"w1","url":"http://127.0.0.1:1"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body)
	}
	var lease cluster.Lease
	if err := json.Unmarshal(rec.Body.Bytes(), &lease); err != nil {
		t.Fatal(err)
	}
	if lease.TTLMillis != cluster.DefaultTTL.Milliseconds() || lease.Epoch != 1 {
		t.Fatalf("lease: %+v", lease)
	}

	for _, bad := range []string{`{"id":"","url":"http://x"}`, `{"id":"w2","url":"ftp://x"}`, `{`} {
		if rec := postJSON("/v1/cluster/register", bad); rec.Code != http.StatusBadRequest {
			t.Errorf("register %s: status %d, want 400", bad, rec.Code)
		}
	}

	if rec := postJSON("/v1/cluster/heartbeat", `{"id":"w1"}`); rec.Code != http.StatusOK {
		t.Fatalf("heartbeat: status %d", rec.Code)
	}
	// Unknown worker → 404, the re-register signal.
	if rec := postJSON("/v1/cluster/heartbeat", `{"id":"ghost"}`); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown heartbeat: status %d, want 404", rec.Code)
	}

	// Drain via heartbeat: still a member, no longer live.
	if rec := postJSON("/v1/cluster/heartbeat", `{"id":"w1","drain":true}`); rec.Code != http.StatusOK {
		t.Fatalf("drain heartbeat: status %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/cluster/members", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, req)
	var members struct {
		Workers []cluster.Worker `json:"workers"`
	}
	if err := json.Unmarshal(mrec.Body.Bytes(), &members); err != nil {
		t.Fatal(err)
	}
	if len(members.Workers) != 1 || members.Workers[0].State != cluster.StateDraining {
		t.Fatalf("members after drain: %+v", members.Workers)
	}

	if rec := postJSON("/v1/cluster/deregister", `{"id":"w1"}`); rec.Code != http.StatusOK {
		t.Fatalf("deregister: status %d", rec.Code)
	}
	if coord.Alive("w1") {
		t.Error("deregistered worker still alive")
	}

	// A non-coordinator handler does not mount the endpoints at all.
	plain := NewHandler(engine.New(), Options{})
	req = httptest.NewRequest(http.MethodPost, "/v1/cluster/register",
		bytes.NewBufferString(`{"id":"w1","url":"http://x"}`))
	prec := httptest.NewRecorder()
	plain.ServeHTTP(prec, req)
	if prec.Code == http.StatusOK {
		t.Error("cluster endpoints must not exist without Options.Cluster")
	}
}

// TestCoordinatorSweepOverHTTP is the serve-layer end-to-end: two real
// worker servers register with a coordinator handler, a sweep POSTed to the
// coordinator streams grid-ordered rows, and the canonical stream equals
// the one a plain local handler produces for the same spec.
func TestCoordinatorSweepOverHTTP(t *testing.T) {
	spec := `{
	  "name": "http-cluster",
	  "protocols": [{"spec": "flock:{N}"}],
	  "params": [{"from": 3, "to": 5}],
	  "kinds": ["simulate", "stable"],
	  "sizes": [6, 7],
	  "options": {"seed": 11, "exactOracle": true}
	}`

	local := NewHandler(engine.New(), Options{})
	_, wantRows := sweepRows(t, local, spec)

	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	h := NewHandler(engine.New(), Options{
		Cluster:         coord,
		ClusterDispatch: cluster.DispatchOptions{RangeCells: 2},
	})
	for i := 0; i < 2; i++ {
		w := httptest.NewServer(NewHandler(engine.New(), Options{}))
		defer w.Close()
		coord.Register(fmt.Sprintf("w%d", i), w.URL)
	}

	rec, gotRows := sweepRows(t, h, spec)
	if rec.Code != http.StatusOK {
		t.Fatalf("cluster sweep: status %d: %s", rec.Code, rec.Body)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("row counts differ: got %d, want %d", len(gotRows), len(wantRows))
	}
	canon := func(row sweep.StreamRow) string {
		t.Helper()
		if row.Type == "cell" && row.Cell != nil {
			c := sweep.CanonicalCell(*row.Cell)
			b, _ := json.Marshal(sweep.StreamRow{Type: "cell", Cell: &c})
			return string(b)
		}
		b, _ := json.Marshal(sweep.StreamRow{Type: row.Type, Summary: sweep.CanonicalResult(row.Summary), Error: row.Error})
		return string(b)
	}
	for i := range wantRows {
		if g, w := canon(gotRows[i]), canon(wantRows[i]); g != w {
			t.Errorf("row %d differs:\n got: %s\nwant: %s", i, g, w)
		}
	}
	// Both streams are grid-ordered.
	for name, rows := range map[string][]sweep.StreamRow{"local": wantRows, "cluster": gotRows} {
		for i, row := range rows[:len(rows)-1] {
			if row.Type != "cell" || row.Cell.Index != i {
				t.Errorf("%s row %d: type %s index %v, want cell %d", name, i, row.Type, row.Cell, i)
			}
		}
	}
}

// TestRequestLogging: with RequestLog set, each analyze and sweep request
// emits one structured line carrying kind, protocol hash, duration, status
// and cache-hit.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	h := NewHandler(engine.New(), Options{
		RequestLog: slog.New(slog.NewTextHandler(&buf, nil)),
	})
	post(t, h, "/v1/analyze", `{"kind":"stable","protocol":{"spec":"flock:3"}}`)
	line := buf.String()
	for _, want := range []string{"msg=analyze", "kind=stable", "status=200", "protocol=", "durationMillis=", "cacheHit=false"} {
		if !strings.Contains(line, want) {
			t.Errorf("analyze log line missing %q: %s", want, line)
		}
	}

	buf.Reset()
	sweepRows(t, h, `{"name":"logtest","kinds":["bounds"],"params":[3]}`)
	line = buf.String()
	for _, want := range []string{"msg=sweep", "sweep=logtest", "mode=local", "completed=1", "status=200"} {
		if !strings.Contains(line, want) {
			t.Errorf("sweep log line missing %q: %s", want, line)
		}
	}
}
