package journal

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// writeSweep journals n cells and (optionally) a done record under hash,
// then closes it.
func writeSweep(t *testing.T, s *Store, hash string, n int, done bool) {
	t.Helper()
	j, err := s.Sweep(hash)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := j.AppendCell(i, cellRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if done {
		if err := j.AppendDone(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func walSize(t *testing.T, s *Store, hash string) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(s.Dir(), hash+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestCompactStubsDoneWALs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSweep(t, s, "donesweep", 8, true)
	writeSweep(t, s, "livesweep", 8, false)
	liveBefore := walSize(t, s, "livesweep")

	stats, err := s.Compact(Retention{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compacted != 1 || stats.Removed != 0 {
		t.Fatalf("stats = %+v, want 1 compaction, 0 removals", stats)
	}
	// The stub replays as done with zero completed cells, so a
	// resubmission re-executes the whole (deterministic) grid.
	j, err := s.Sweep("donesweep")
	if err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Fatal("stub replay: not done")
	}
	if len(j.Completed()) != 0 {
		t.Fatalf("stub replay carries %d cells, want 0", len(j.Completed()))
	}
	// Re-sealing a replayed-done journal is a no-op, not a duplicate record.
	sealed := walSize(t, s, "donesweep")
	if err := j.AppendDone(); err != nil {
		t.Fatal(err)
	}
	if got := walSize(t, s, "donesweep"); got != sealed {
		t.Fatalf("AppendDone on a sealed journal grew the WAL %d → %d", sealed, got)
	}
	j.Close()

	// The in-progress WAL was untouched, byte for byte.
	if got := walSize(t, s, "livesweep"); got != liveBefore {
		t.Fatalf("in-progress WAL size changed %d → %d", liveBefore, got)
	}
	j2, err := s.Sweep("livesweep")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Done() || len(j2.Completed()) != 8 {
		t.Fatalf("in-progress replay: done=%v cells=%d, want live with 8 cells", j2.Done(), len(j2.Completed()))
	}
	if got := s.Metrics().Compactions.Value(); got != 1 {
		t.Fatalf("compactions metric = %v, want 1", got)
	}
	// A second pass finds only stubs and in-progress WALs: nothing to do.
	stats, err = s.Compact(Retention{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compacted != 0 || stats.Removed != 0 {
		t.Fatalf("idempotent pass stats = %+v, want no-op", stats)
	}
}

func TestCompactSkipsBusySweeps(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSweep(t, s, "donesweep", 4, true)
	before := walSize(t, s, "donesweep")
	j, err := s.Sweep("donesweep")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	stats, err := s.Compact(Retention{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedBusy != 1 || stats.Compacted != 0 {
		t.Fatalf("stats = %+v, want the open sweep skipped", stats)
	}
	if got := walSize(t, s, "donesweep"); got != before {
		t.Fatalf("open sweep's WAL changed %d → %d", before, got)
	}
}

func TestCompactAgesOutOldDoneWALs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSweep(t, s, "oldsweep", 4, true)
	writeSweep(t, s, "newsweep", 4, true)
	writeSweep(t, s, "oldlive", 4, false)
	base := time.Now()
	for _, h := range []string{"oldsweep", "oldlive"} {
		old := base.Add(-48 * time.Hour)
		if err := os.Chtimes(filepath.Join(s.Dir(), h+".wal"), old, old); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := s.Compact(Retention{Retain: 24 * time.Hour, Now: func() time.Time { return base }})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 || stats.Compacted != 1 {
		t.Fatalf("stats = %+v, want oldsweep removed and newsweep stubbed", stats)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "oldsweep.wal")); !os.IsNotExist(err) {
		t.Fatal("aged-out done WAL still on disk")
	}
	// Age never applies to in-progress sweeps, however old.
	if _, err := os.Stat(filepath.Join(s.Dir(), "oldlive.wal")); err != nil {
		t.Fatal("aged in-progress WAL was deleted")
	}
	if got := s.Metrics().Retired.Value(); got != 1 {
		t.Fatalf("retired metric = %v, want 1", got)
	}
}

func TestCompactStubPreservesMtimeForRetention(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSweep(t, s, "donesweep", 4, true)
	base := time.Now()
	old := base.Add(-20 * time.Hour)
	if err := os.Chtimes(filepath.Join(s.Dir(), "donesweep.wal"), old, old); err != nil {
		t.Fatal(err)
	}
	clock := func() time.Time { return base }
	if _, err := s.Compact(Retention{Retain: 24 * time.Hour, Now: clock}); err != nil {
		t.Fatal(err)
	}
	// The stub inherited the completion-era mtime: 5 more hours pushes it
	// past the retention window even though the stub file is brand new.
	later := func() time.Time { return base.Add(5 * time.Hour) }
	stats, err := s.Compact(Retention{Retain: 24 * time.Hour, Now: later})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 {
		t.Fatalf("stats = %+v, want the stub aged out on original mtime", stats)
	}
}

func TestCompactSizeBudgetRemovesOldestDoneFirst(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Three done sweeps plus one in-progress; mtimes staggered so "aa" is
	// the oldest done WAL.
	base := time.Now()
	for i, h := range []string{"aa", "bb", "cc"} {
		writeSweep(t, s, h, 4, true)
		mt := base.Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(filepath.Join(s.Dir(), h+".wal"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	writeSweep(t, s, "live", 64, false)
	liveSize := walSize(t, s, "live")

	// Budget below the live WAL alone: every done stub must go, the live
	// WAL must survive.
	stats, err := s.Compact(Retention{MaxBytes: liveSize - 1, Now: func() time.Time { return base }})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 3 {
		t.Fatalf("stats = %+v, want all 3 done WALs removed", stats)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "live.wal")); err != nil {
		t.Fatal("in-progress WAL sacrificed to the size budget")
	}

	// A generous budget removes only the oldest done WAL.
	s2, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range []string{"aa", "bb", "cc"} {
		writeSweep(t, s2, h, 4, true)
		mt := base.Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(filepath.Join(s2.Dir(), h+".wal"), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	pre, err := s2.Compact(Retention{Now: func() time.Time { return base }}) // stub first, to learn sizes
	if err != nil {
		t.Fatal(err)
	}
	if pre.Compacted != 3 {
		t.Fatalf("setup pass stats = %+v, want 3 stubs", pre)
	}
	total := walSize(t, s2, "aa") + walSize(t, s2, "bb") + walSize(t, s2, "cc")
	stats, err = s2.Compact(Retention{MaxBytes: total - 1, Now: func() time.Time { return base }})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 {
		t.Fatalf("stats = %+v, want exactly one removal", stats)
	}
	if _, err := os.Stat(filepath.Join(s2.Dir(), "aa.wal")); !os.IsNotExist(err) {
		t.Fatal("size budget did not remove the oldest done WAL")
	}
	for _, h := range []string{"bb", "cc"} {
		if _, err := os.Stat(filepath.Join(s2.Dir(), h+".wal")); err != nil {
			t.Fatalf("size budget removed younger WAL %s", h)
		}
	}
}
