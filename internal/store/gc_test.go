package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// gcStore opens a governed store in a temp dir in manual mode (no
// background goroutine), so only explicit RunGC calls drive eviction and
// every test's eviction order is deterministic.
func gcStore(t *testing.T, maxBytes int64, lowWater float64) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableGC(GCOptions{MaxBytes: maxBytes, LowWater: lowWater, Interval: -1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseGC)
	return s
}

// entrySize is the framed on-disk size of a payload of n bytes.
func entrySize(n int) int64 { return int64(12 + n) }

func mustPut(t *testing.T, s *Store, hash string, n int) {
	t.Helper()
	if err := s.Put("stable", hash, make([]byte, n)); err != nil {
		t.Fatal(err)
	}
}

func present(t *testing.T, s *Store, hash string) bool {
	t.Helper()
	_, err := os.Stat(filepath.Join(s.Dir(), "stable", hash))
	if err == nil {
		return true
	}
	if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return false
}

func TestGCEvictsColdEntriesFirst(t *testing.T) {
	s := gcStore(t, 5000, 0.5)
	for _, h := range []string{"aa", "bb", "cc", "dd"} {
		mustPut(t, s, h, 1000)
	}
	// Touch aa so it is hotter than bb/cc/dd despite being written first.
	if p, err := s.Get("stable", "aa"); err != nil || p == nil {
		t.Fatalf("warm read: %v", err)
	}
	mustPut(t, s, "ee", 1000) // 5060 bytes: over budget
	s.RunGC()

	// LRU back-to-front was bb, cc, dd, aa, ee; draining to the 2500-byte
	// low-water mark evicts bb, cc, dd.
	for _, h := range []string{"bb", "cc", "dd"} {
		if present(t, s, h) {
			t.Fatalf("cold entry %s survived", h)
		}
	}
	for _, h := range []string{"aa", "ee"} {
		if !present(t, s, h) {
			t.Fatalf("hot entry %s evicted", h)
		}
	}
	if got := s.GCBytes(); got != 2*entrySize(1000) {
		t.Fatalf("GCBytes = %d, want %d", got, 2*entrySize(1000))
	}
	if got := s.Metrics().GCEvictions.Value(); got != 3 {
		t.Fatalf("evictions = %v, want 3", got)
	}
	// Evicted entries read as clean misses, not errors.
	if p, err := s.Get("stable", "bb"); err != nil || p != nil {
		t.Fatalf("evicted entry read = (%v, %v), want clean miss", p, err)
	}
}

func TestGCScanOnStartOrdersByMtime(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now()
	for i, h := range []string{"newest", "oldest", "middle"} {
		mustPut(t, s, h, 1000)
		var age time.Duration
		switch h {
		case "oldest":
			age = 3 * time.Hour
		case "middle":
			age = 2 * time.Hour
		case "newest":
			age = time.Hour
		}
		mt := base.Add(-age)
		if err := os.Chtimes(filepath.Join(dir, "stable", h), mt, mt); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	// A stray temp file must be ignored by the scan.
	if err := os.WriteFile(filepath.Join(dir, "stable", ".junk.tmp1"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := s.EnableGC(GCOptions{MaxBytes: 2900, LowWater: 0.7, Interval: -1}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseGC)
	if got := s.GCBytes(); got != 3*entrySize(1000) {
		t.Fatalf("scan tracked %d bytes, want %d (temp file leaked in?)", got, 3*entrySize(1000))
	}
	s.RunGC()
	// 3036 > 2900; draining to 2030 evicts exactly the oldest mtime.
	if present(t, s, "oldest") {
		t.Fatal("oldest entry survived")
	}
	if !present(t, s, "middle") || !present(t, s, "newest") {
		t.Fatal("younger entry evicted before the oldest")
	}
}

func TestGCDeleteFailpointSkipsAndRetries(t *testing.T) {
	if err := faultinject.Configure(faultinject.PointStoreDelete + "=at:1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	s := gcStore(t, 2000, 0.9)
	mustPut(t, s, "aa", 1000)
	mustPut(t, s, "bb", 1000) // over budget: 2024 > 2000
	s.RunGC()

	// The first delete attempt (oldest entry, aa) failed; the pass skipped
	// it and evicted bb instead.
	if !present(t, s, "aa") {
		t.Fatal("entry whose delete failed was dropped")
	}
	if present(t, s, "bb") {
		t.Fatal("next victim not evicted after the failed delete")
	}
	if got := s.Metrics().GCErrors.Value(); got != 1 {
		t.Fatalf("gc errors = %v, want 1", got)
	}
	// aa is still tracked: new pressure retries and evicts it now that the
	// failpoint is exhausted.
	mustPut(t, s, "cc", 1000)
	s.RunGC()
	if present(t, s, "aa") {
		t.Fatal("failed delete not retried on the next pass")
	}
	if got := s.Metrics().GCEvictions.Value(); got != 2 {
		t.Fatalf("evictions = %v, want 2", got)
	}
}

func TestGCDisabledIsInert(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "aa", 1000)
	s.RunGC()
	s.CloseGC()
	if got := s.GCBytes(); got != 0 {
		t.Fatalf("GCBytes without GC = %d, want 0", got)
	}
	if !present(t, s, "aa") {
		t.Fatal("ungoverned store evicted an entry")
	}
}

func TestGCBackgroundEviction(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableGC(GCOptions{MaxBytes: 2000, LowWater: 0.9, Interval: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseGC)
	mustPut(t, s, "aa", 1000)
	mustPut(t, s, "bb", 1000) // over budget: the Put kicks the background pass
	deadline := time.Now().Add(5 * time.Second)
	for s.GCBytes() > 1800 {
		if time.Now().After(deadline) {
			t.Fatalf("background GC never drained the store (at %d bytes)", s.GCBytes())
		}
		time.Sleep(time.Millisecond)
	}
	if present(t, s, "aa") {
		t.Fatal("background pass spared the oldest entry")
	}
	if !present(t, s, "bb") {
		t.Fatal("background pass evicted the newest entry")
	}
}

func TestGCForgetsDeletedAndCorruptEntries(t *testing.T) {
	s := gcStore(t, 1<<20, 0.9)
	mustPut(t, s, "aa", 1000)
	mustPut(t, s, "bb", 1000)
	if err := s.Delete("stable", "aa"); err != nil {
		t.Fatal(err)
	}
	if got := s.GCBytes(); got != entrySize(1000) {
		t.Fatalf("GCBytes after delete = %d, want %d", got, entrySize(1000))
	}
	// Corrupt bb on disk; the corrupt-read delete must also untrack it.
	p := filepath.Join(s.Dir(), "stable", "bb")
	if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("stable", "bb"); err == nil {
		t.Fatal("corrupt read did not error")
	}
	if got := s.GCBytes(); got != 0 {
		t.Fatalf("GCBytes after corrupt delete = %d, want 0", got)
	}
}
