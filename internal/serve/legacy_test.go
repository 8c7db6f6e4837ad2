package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// Request bodies, artifact paths and store directories written for
// releases that had family warm starts (requests could name a "family"
// and "familyParam", and stores held a "family" artifact kind) keep
// working.

// TestAnalyzeAcceptsLegacyFamilyFields: the /v1/analyze decoder ignores
// unknown fields, so a body that still carries family/familyParam is
// answered exactly like the same body without them.
func TestAnalyzeAcceptsLegacyFamilyFields(t *testing.T) {
	for _, kind := range []string{"stable", "basis"} {
		plain := `{"kind":"` + kind + `","protocol":{"spec":"flock:5"}}`
		legacy := `{"kind":"` + kind + `","protocol":{"spec":"flock:5"},"family":"flock:{N}","familyParam":5}`
		var bodies [2]string
		for i, body := range []string{plain, legacy} {
			rec, res := post(t, NewHandler(engine.New(), Options{}), "/v1/analyze", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
			}
			res.ElapsedMillis = 0
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			bodies[i] = string(b)
		}
		if bodies[0] != bodies[1] {
			t.Fatalf("%s: legacy body answered differently:\n plain: %s\nlegacy: %s", kind, bodies[0], bodies[1])
		}
	}
}

// writeLegacyFamilyEntry puts a framed "family" entry under dir the way
// earlier releases laid it out, dated an hour back so it is the coldest
// entry in the store.
func writeLegacyFamilyEntry(t *testing.T, dir, hash string) string {
	t.Helper()
	path := filepath.Join(dir, "family", hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"v":1,"family":"flock:{N}","members":[{"param":5,"hash":"` + hash + `"}]}`)
	if err := os.WriteFile(path, store.Encode(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestArtifactRouteRemoved: the artifact transfer route is gone, so GET
// /v1/artifacts/stable/<hash> is 404 even when the disk store holds that
// very artifact.
func TestArtifactRouteRemoved(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	eng.SetArtifactStore(st)
	h := NewHandler(eng, Options{})
	_, res := post(t, h, "/v1/analyze", `{"kind":"stable","protocol":{"spec":"binary:5"}}`)
	hash := res.Protocol.Hash
	if p, err := st.Get(engine.ArtifactStable, hash); err != nil || p == nil {
		t.Fatalf("stable artifact not on disk: (%d bytes, %v)", len(p), err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/artifacts/stable/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/artifacts/stable/<hash>: status %d, want 404", resp.StatusCode)
	}
}

// TestStoreWithLegacyFamilyEntry: a store directory holding a legacy
// family/ entry opens cleanly, serves analyses, and its GC evicts the
// entry like any other cold one.
func TestStoreWithLegacyFamilyEntry(t *testing.T) {
	dir := t.TempDir()
	legacy := writeLegacyFamilyEntry(t, dir, "00aa")
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	eng.SetArtifactStore(st)
	rec, res := post(t, NewHandler(eng, Options{}), "/v1/analyze", `{"kind":"stable","protocol":{"spec":"flock:5"}}`)
	if rec.Code != http.StatusOK || res.Stable == nil {
		t.Fatalf("stable request over a legacy store: status %d: %s", rec.Code, rec.Body)
	}
	stablePath := filepath.Join(dir, engine.ArtifactStable, res.Protocol.Hash)
	sizes := int64(0)
	for _, p := range []string{legacy, stablePath} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes += info.Size()
	}

	// One byte over budget: draining evicts the coldest entry, the legacy
	// one, and keeps the fresh stable artifact.
	if err := st.EnableGC(sizes - 1); err != nil {
		t.Fatalf("EnableGC over a legacy store: %v", err)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("legacy family entry survived GC (stat err %v)", err)
	}
	if _, err := os.Stat(stablePath); err != nil {
		t.Fatalf("stable artifact evicted instead of the legacy entry: %v", err)
	}
}
