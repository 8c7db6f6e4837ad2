package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// gcStore opens a governed store in a temp dir. Eviction runs inside the
// Put (or Get) that crosses the budget, so every test's eviction order is
// deterministic.
func gcStore(t *testing.T, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableGC(maxBytes); err != nil {
		t.Fatal(err)
	}
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
	s := gcStore(t, 5000)
	for _, h := range []string{"aa", "bb", "cc", "dd"} {
		mustPut(t, s, h, 1000)
	}
	// Touch aa so it is hotter than bb/cc/dd despite being written first.
	if p, err := s.Get("stable", "aa"); err != nil || p == nil {
		t.Fatalf("warm read: %v", err)
	}
	if got := s.Metrics().GCEvictions.Value(); got != 0 {
		t.Fatalf("evictions under budget = %v, want 0", got)
	}
	mustPut(t, s, "ee", 1000) // 5060 bytes: over budget

	// LRU back-to-front was bb, cc, dd, aa, ee; by the time the Put
	// returns, evicting down to the 5000-byte budget has removed bb alone.
	if present(t, s, "bb") {
		t.Fatal("cold entry bb survived the over-budget Put")
	}
	for _, h := range []string{"cc", "dd", "aa", "ee"} {
		if !present(t, s, h) {
			t.Fatalf("entry %s evicted before the coldest", h)
		}
	}
	if got := s.GCBytes(); got != 4*entrySize(1000) {
		t.Fatalf("GCBytes = %d, want %d", got, 4*entrySize(1000))
	}
	if got := s.Metrics().GCEvictions.Value(); got != 1 {
		t.Fatalf("evictions = %v, want 1", got)
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

	// The scan tracks 3036 bytes > 2900; evicting down to the budget
	// removes exactly the oldest mtime before EnableGC returns.
	if err := s.EnableGC(2900); err != nil {
		t.Fatal(err)
	}
	if got := s.GCBytes(); got != 2*entrySize(1000) {
		t.Fatalf("scan tracked %d bytes after eviction, want %d (temp file leaked in?)", got, 2*entrySize(1000))
	}
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

	s := gcStore(t, 2000)
	mustPut(t, s, "aa", 1000)
	mustPut(t, s, "bb", 1000) // over budget: 2024 > 2000

	// The first delete attempt (oldest entry, aa) failed; the Put skipped
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
	// aa is still tracked: the next write over budget retries and evicts
	// it now that the failpoint is exhausted.
	mustPut(t, s, "cc", 1000)
	if present(t, s, "aa") {
		t.Fatal("failed delete not retried on the next write over budget")
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
	if got := s.GCBytes(); got != 0 {
		t.Fatalf("GCBytes without GC = %d, want 0", got)
	}
	if !present(t, s, "aa") {
		t.Fatal("ungoverned store evicted an entry")
	}
}

func TestGCForgetsDeletedAndCorruptEntries(t *testing.T) {
	s := gcStore(t, 1<<20)
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

// TestGCConcurrentPutsStayWithinBudget: eviction runs inside Put, so the
// budget holds after every Put returns even with writers racing, and the
// index ends in agreement with the directory.
func TestGCConcurrentPutsStayWithinBudget(t *testing.T) {
	const (
		writers   = 8
		perWriter = 16
		maxBytes  = 20 * 112 // 20 entries of entrySize(100); 128 are written
	)
	s := gcStore(t, maxBytes)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Put("stable", fmt.Sprintf("w%dn%d", w, i), make([]byte, 100)); err != nil {
					errs <- err
					return
				}
				if got := s.GCBytes(); got > maxBytes {
					errs <- fmt.Errorf("GCBytes = %d after Put returned, budget %d", got, maxBytes)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var onDisk int64
	files, err := os.ReadDir(filepath.Join(s.Dir(), "stable"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += info.Size()
	}
	if got := s.GCBytes(); got != onDisk {
		t.Fatalf("GCBytes = %d, entry files on disk sum to %d", got, onDisk)
	}
	if got := s.Metrics().GCEvictions.Value(); got == 0 {
		t.Fatal("budget below the written total but nothing was evicted")
	}
}
