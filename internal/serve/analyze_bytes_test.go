package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
)

// analyzeBodies is one /v1/analyze request of every kind. The inline
// protocol's names carry HTML characters and a line separator, which the
// response must write unescaped, as the Encoder with SetEscapeHTML(false)
// did.
var analyzeBodies = map[engine.Kind]string{
	engine.KindSimulate: `{"kind":"simulate","protocol":{"spec":"flock:8"},"input":[20],"seed":7,"traceEvery":50}`,
	engine.KindVerify: `{"kind":"verify","protocol":{"inline":{"name":"<a&b>\u2028","states":[{"name":"x<y","output":1},{"name":"z","output":0}],` +
		`"transitions":[["x<y","z","z","z"]],"inputs":{"x":"x<y"},"completeWithIdentity":true}},` +
		`"predicate":{"kind":"counting","threshold":1},"maxSize":6}`,
	engine.KindStable:            `{"kind":"stable","protocol":{"spec":"binary:7"}}`,
	engine.KindCertifyChain:      `{"kind":"certify-chain","protocol":{"spec":"leaderflock:3"},"seed":11}`,
	engine.KindCertifyLeaderless: `{"kind":"certify-leaderless","protocol":{"spec":"flock:4"},"seed":2}`,
	engine.KindSaturate:          `{"kind":"saturate","protocol":{"spec":"parity"}}`,
	engine.KindBasis:             `{"kind":"basis","protocol":{"spec":"succinct:3"}}`,
	engine.KindBounds:            `{"kind":"bounds","states":4,"transitions":10}`,
	engine.KindCover:             `{"kind":"cover","protocol":{"spec":"flock:4"},"input":[6],"limit":500}`,
}

// TestAnalyzeResponseBytes pins the 200 body of every request kind to the
// bytes the reflective encoder wrote before Result.AppendJSON replaced it:
// the response, decoded and re-encoded by a json.Encoder with HTML
// escaping off, comes out byte for byte as it went in.
func TestAnalyzeResponseBytes(t *testing.T) {
	if len(analyzeBodies) != len(engine.Kinds) {
		t.Fatalf("table covers %d kinds, want %d", len(analyzeBodies), len(engine.Kinds))
	}
	h := NewHandler(engine.New(), Options{})
	for kind, body := range analyzeBodies {
		rec, res := post(t, h, "/v1/analyze", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", kind, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", kind, ct)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("%s: response differs from encoding/json's bytes:\n got %s\nwant %s", kind, rec.Body, want.Bytes())
		}
	}
	if rec, _ := post(t, h, "/v1/analyze", analyzeBodies[engine.KindVerify]); !strings.Contains(rec.Body.String(), `"name":"<a&b>\u2028"`) {
		t.Errorf("inline name not written unescaped: %s", rec.Body)
	}
}

// TestWriteResultEncodeError: a result that does not encode writes
// nothing, so the handler can still answer 500 in place of an empty 200.
func TestWriteResultEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	err := writeResult(rec, &engine.Result{Kind: engine.KindStable, ElapsedMillis: math.NaN()})
	if err == nil {
		t.Fatal("a NaN result encoded")
	}
	if rec.Body.Len() != 0 || len(rec.Header()) != 0 {
		t.Fatalf("writeResult wrote %d bytes and headers %v before failing", rec.Body.Len(), rec.Header())
	}
}

// TestReadBody: a body that declares its length is read into one buffer
// with a single spare byte, one that does not is read whole all the same,
// and an analyze body over the cap is a 400 even when its first JSON value
// ends inside the cap.
func TestReadBody(t *testing.T) {
	body := strings.Repeat("x", 2211)
	for _, length := range []int64{int64(len(body)), -1} {
		r := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
		r.ContentLength = length
		b, err := readBody(httptest.NewRecorder(), r, maxAnalyzeBody)
		if err != nil || string(b) != body {
			t.Fatalf("length %d: read %d bytes, %v", length, len(b), err)
		}
		if length >= 0 && cap(b) != len(body)+1 {
			t.Errorf("declared length %d read into a buffer of capacity %d", length, cap(b))
		}
	}
	h := NewHandler(engine.New(), Options{})
	over := `{"kind":"bounds","states":4,"transitions":10}` + strings.Repeat(" ", maxAnalyzeBody)
	if rec, _ := post(t, h, "/v1/analyze", over); rec.Code != http.StatusBadRequest {
		t.Fatalf("over-cap body: status %d: %s", rec.Code, rec.Body)
	}
}
