package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
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

func walExists(s *Store, hash string) bool {
	_, err := os.Stat(filepath.Join(s.Dir(), hash+".wal"))
	return err == nil
}

// age sets the mtime of hash's WAL to d before base.
func age(t *testing.T, s *Store, hash string, base time.Time, d time.Duration) {
	t.Helper()
	mt := base.Add(-d)
	if err := os.Chtimes(filepath.Join(s.Dir(), hash+".wal"), mt, mt); err != nil {
		t.Fatal(err)
	}
}

// TestCompactSkipsBusySweeps: retention never deletes a WAL whose sweep is
// open, however aggressive the policy. Closing that sealed sweep runs the
// next pass, which retires it.
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
	if err := s.SetRetention(Retention{Retain: time.Nanosecond, MaxBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if got := walSize(t, s, "donesweep"); got != before {
		t.Fatalf("open sweep's WAL changed %d → %d", before, got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if walExists(s, "donesweep") {
		t.Fatal("closing the sealed sweep did not retire it")
	}
}

// TestCompactAgesOutOldDoneWALs: Retain deletes sealed WALs older than
// the window, never an in-progress one however old, and a sealed WAL
// inside the window keeps its cells, so it still replays in full.
func TestCompactAgesOutOldDoneWALs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	writeSweep(t, s, "oldsweep", 4, true)
	writeSweep(t, s, "newsweep", 4, true)
	writeSweep(t, s, "oldlive", 4, false)
	base := time.Now()
	age(t, s, "oldsweep", base, 48*time.Hour)
	age(t, s, "oldlive", base, 48*time.Hour)

	if err := s.SetRetention(Retention{Retain: 24 * time.Hour}); err != nil {
		t.Fatal(err)
	}
	if walExists(s, "oldsweep") {
		t.Fatal("aged-out sealed WAL still on disk")
	}
	if !walExists(s, "oldlive") {
		t.Fatal("aged in-progress WAL was deleted")
	}
	if got := s.Metrics().Retired.Value(); got != 1 {
		t.Fatalf("retired metric = %v, want 1", got)
	}
	j, err := s.Sweep("newsweep")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !j.Done() || len(j.Completed()) != 4 {
		t.Fatalf("retained sealed WAL replays done=%v with %d cells, want done with 4", j.Done(), len(j.Completed()))
	}
}

// TestCompactSizeBudgetRemovesOldestDoneFirst: over MaxBytes, sealed WALs
// go oldest mtime first until the directory fits; an in-progress WAL is
// never sacrificed, even when it alone exceeds the budget.
func TestCompactSizeBudgetRemovesOldestDoneFirst(t *testing.T) {
	base := time.Now()
	setup := func(live bool) *Store {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range []string{"aa", "bb", "cc"} {
			writeSweep(t, s, h, 4, true)
			age(t, s, h, base, time.Duration(3-i)*time.Hour)
		}
		if live {
			writeSweep(t, s, "live", 64, false)
		}
		return s
	}

	// Budget below the live WAL alone: every sealed WAL goes, the live
	// WAL survives.
	s := setup(true)
	if err := s.SetRetention(Retention{MaxBytes: walSize(t, s, "live") - 1}); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Retired.Value(); got != 3 {
		t.Fatalf("retired %v WALs, want all 3 sealed ones", got)
	}
	if !walExists(s, "live") {
		t.Fatal("in-progress WAL sacrificed to the size budget")
	}

	// A budget one byte short removes only the oldest sealed WAL.
	s = setup(false)
	total := walSize(t, s, "aa") + walSize(t, s, "bb") + walSize(t, s, "cc")
	if err := s.SetRetention(Retention{MaxBytes: total - 1}); err != nil {
		t.Fatal(err)
	}
	if walExists(s, "aa") || !walExists(s, "bb") || !walExists(s, "cc") {
		t.Fatal("size budget did not remove exactly the oldest sealed WAL")
	}
}

// TestConcurrentSealsRetireUnderBudget: two sweeps seal and close at once
// under a 1-byte budget while a third stays open. Each sealed WAL is
// retired and counted once; the open WAL is not touched, byte for byte.
func TestConcurrentSealsRetireUnderBudget(t *testing.T) {
	for round := 0; round < 20; round++ {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetRetention(Retention{MaxBytes: 1}); err != nil {
			t.Fatal(err)
		}
		live, err := s.Sweep("live")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := live.AppendCell(i, cellRow(i)); err != nil {
				t.Fatal(err)
			}
		}
		livePath := filepath.Join(s.Dir(), "live.wal")
		before, err := os.ReadFile(livePath)
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for _, h := range []string{"sealed1", "sealed2"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				j, err := s.Sweep(h)
				if err == nil {
					err = j.AppendCell(0, cellRow(0))
				}
				if err == nil {
					err = j.AppendDone()
				}
				if err == nil {
					err = j.Close()
				}
				if err != nil {
					errs <- fmt.Errorf("%s: %w", h, err)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		if after, err := os.ReadFile(livePath); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("round %d: open WAL changed under retention (%v)", round, err)
		}
		if walExists(s, "sealed1") || walExists(s, "sealed2") {
			t.Fatalf("round %d: a sealed WAL outlived the 1-byte budget", round)
		}
		if got := s.Metrics().Retired.Value(); got != 2 {
			t.Fatalf("round %d: retired = %v, want 2", round, got)
		}
		if err := live.Close(); err != nil {
			t.Fatal(err)
		}
		if !walExists(s, "live") {
			t.Fatalf("round %d: closing the unsealed sweep deleted it", round)
		}
	}
}

// TestLegacySealedWALRetired: a sweep that a release before the shared row
// codec completed ends with a 23-byte done frame, whose payload has no
// trailing newline. The size budget retires such a WAL like any sealed
// one, but never while a sweep holds it open; closing that sweep retires
// it too.
func TestLegacySealedWALRetired(t *testing.T) {
	frame := func(payload string) []byte {
		var h [8]byte
		binary.LittleEndian.PutUint32(h[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(h[4:], crc32.ChecksumIEEE([]byte(payload)))
		return append(h[:], payload...)
	}
	done := frame(`{"type":"done"}`)
	if len(done) != 23 {
		t.Fatalf("legacy done frame is %d bytes, want 23", len(done))
	}
	wal := append(frame(string(cellRow(0))), done...)
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"legacydone", "legacyopen"} {
		if err := os.WriteFile(filepath.Join(s.Dir(), h+".wal"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j, err := s.Sweep("legacyopen")
	if err != nil {
		t.Fatal(err)
	}
	if !j.Done() || len(j.Completed()) != 1 {
		t.Fatalf("legacy WAL replays done=%v with %d cells, want done with 1", j.Done(), len(j.Completed()))
	}
	if err := s.SetRetention(Retention{MaxBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if walExists(s, "legacydone") {
		t.Fatal("legacy-sealed WAL survived the size budget")
	}
	if after, err := os.ReadFile(filepath.Join(s.Dir(), "legacyopen.wal")); err != nil || !bytes.Equal(after, wal) {
		t.Fatalf("open legacy-sealed WAL was retired or changed (%v)", err)
	}
	if got := s.Metrics().Retired.Value(); got != 1 {
		t.Fatalf("retired metric = %v, want 1", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if walExists(s, "legacyopen") {
		t.Fatal("closing the legacy-sealed sweep did not retire it")
	}
}
