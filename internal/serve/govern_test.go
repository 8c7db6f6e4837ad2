package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics/testutil"
)

// TestRateLimit429 pins the per-client limiter's contract: a client that
// exhausts its burst gets 429 with a Retry-After derived from its actual
// refill time and the JSON error envelope, the denial lands in both the
// rate-limit counter and the request counter, and a different client (a
// distinct API key) is admitted untouched.
func TestRateLimit429(t *testing.T) {
	// Rate slow enough that the bucket cannot refill mid-test.
	h, sm := newHandler(engine.New(), Options{RateLimit: 0.01, RateBurst: 2})
	analyze := `{"kind":"stable","protocol":{"spec":"flock:3"}}`
	send := func(apiKey string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewBufferString(analyze))
		if apiKey != "" {
			req.Header.Set("X-API-Key", apiKey)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	// httptest requests share RemoteAddr 192.0.2.1:1234 — one client.
	for i := 0; i < 2; i++ {
		if rec := send(""); rec.Code != http.StatusOK {
			t.Fatalf("request %d within burst: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	rec := send("")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: status %d, want 429", rec.Code)
	}
	ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("429 Retry-After = %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Errorf("429 body is not the JSON error envelope: %s", rec.Body)
	}
	if got := testutil.ToFloat64(sm.RateLimited.WithLabelValues("/v1/analyze")); got != 1 {
		t.Errorf("pp_serve_rate_limited_total{/v1/analyze} = %v, want 1", got)
	}
	if got := testutil.ToFloat64(sm.Requests.WithLabelValues("/v1/analyze", "429")); got != 1 {
		t.Errorf("pp_serve_requests_total{/v1/analyze,429} = %v, want 1", got)
	}

	// A different API key is a different bucket: admitted immediately.
	if rec := send("other-tenant"); rec.Code != http.StatusOK {
		t.Errorf("distinct client caught by another client's limit: status %d", rec.Code)
	}
}

// TestRateLimitExemptions: cluster-internal endpoints and probes bypass the
// limiter entirely — a coordinator must never 429 its own workers' leases,
// and health/metrics scrapes stay unconditional.
func TestRateLimitExemptions(t *testing.T) {
	js := `{"id":"w1","url":"http://127.0.0.1:1"}`
	h, _ := newHandler(engine.New(), Options{RateLimit: 0.01, RateBurst: 1})
	for i := 0; i < 5; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("healthz %d: status %d, want always-200", i, rec.Code)
		}
	}
	// Without Options.Cluster the endpoint is unmounted (404) — but it must
	// not be 429: the limiter sits on public endpoints only.
	for i := 0; i < 5; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/register", bytes.NewBufferString(js)))
		if rec.Code == http.StatusTooManyRequests {
			t.Fatalf("cluster endpoint rate-limited on request %d", i)
		}
	}

	// The public catalog endpoint, by contrast, is governed.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/catalog", nil))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/catalog", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second catalog request: status %d, want 429", rec.Code)
	}
}

// TestShedRetryAfterFromLatency pins the 503 Retry-After derivation: the
// per-kind latency median when the kind has signal, the vector-wide median
// as fallback, 1s with no signal at all, a 30s ceiling — each stretched by
// at most the 25% deterministic per-client jitter.
func TestShedRetryAfterFromLatency(t *testing.T) {
	within := func(d, lo, hi time.Duration) bool { return d >= lo && d < hi }

	// No observations: the 1s floor.
	eng := engine.New()
	if d := shedRetryAfter(eng, "stable", "client-a"); !within(d, time.Second, 1250*time.Millisecond) {
		t.Errorf("no-signal Retry-After = %v, want [1s, 1.25s)", d)
	}

	// Four 3s observations under "simulate": its median interpolates to 3s
	// inside the (1,5] bucket.
	for i := 0; i < 4; i++ {
		eng.Metrics().Latency.WithLabelValues("simulate").Observe(3.0)
	}
	if d := shedRetryAfter(eng, "simulate", "client-a"); !within(d, 3*time.Second, 3750*time.Millisecond) {
		t.Errorf("per-kind Retry-After = %v, want [3s, 3.75s)", d)
	}
	// A kind with no observations falls back to the vector-wide median.
	if d := shedRetryAfter(eng, "stable", "client-a"); !within(d, 3*time.Second, 3750*time.Millisecond) {
		t.Errorf("fallback Retry-After = %v, want [3s, 3.75s)", d)
	}

	// Pathological latency clamps at 30s before the jitter stretch.
	slow := engine.New()
	for i := 0; i < 4; i++ {
		slow.Metrics().Latency.WithLabelValues("simulate").Observe(100)
	}
	if d := shedRetryAfter(slow, "simulate", "client-a"); !within(d, 30*time.Second, 37500*time.Millisecond) {
		t.Errorf("clamped Retry-After = %v, want [30s, 37.5s)", d)
	}

	// Deterministic per-client: same client same delay, distinct clients
	// (almost surely) fan out.
	if a, b := shedRetryAfter(eng, "simulate", "client-a"), shedRetryAfter(eng, "simulate", "client-a"); a != b {
		t.Errorf("jitter not deterministic per client: %v vs %v", a, b)
	}

	// The header formatting both 429 and 503 share: whole seconds, rounded
	// up, never below 1.
	for _, c := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"}, {300 * time.Millisecond, "1"}, {time.Second, "1"},
		{1100 * time.Millisecond, "2"}, {30 * time.Second, "30"},
	} {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
