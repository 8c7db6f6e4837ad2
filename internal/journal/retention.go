package journal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Retention is the journal store's retention policy. Only sealed WALs —
// completed sweeps, ending with their done record — are ever deleted;
// until then a completed sweep replays entirely from disk.
type Retention struct {
	// Retain ages out completed sweeps: a sealed WAL whose mtime is older
	// than Retain is deleted (0 = keep forever).
	Retain time.Duration
	// MaxBytes bounds the journal directory: past it, the oldest sealed
	// WALs are deleted until the directory fits (0 = unbounded). In-progress
	// WALs count toward the total but are never deleted.
	MaxBytes int64
}

// SetRetention installs the policy and applies it once, right away. From
// then on the policy is applied each time a sealed sweep is closed; there
// is no timer, so an idle store retires nothing until its next seal.
func (s *Store) SetRetention(r Retention) error {
	s.retireMu.Lock()
	s.retention = r
	s.retireMu.Unlock()
	return s.retire()
}

// retire applies the retention policy to the directory. Passes are
// serialized, so each one sizes the directory after the last one's
// deletions. Candidates are visited oldest mtime first; one is deleted
// when it is older than Retain or the directory is still over MaxBytes,
// and only if retireWAL finds it sealed and not open.
func (s *Store) retire() error {
	s.retireMu.Lock()
	defer s.retireMu.Unlock()
	r := s.retention
	if r.Retain <= 0 && r.MaxBytes <= 0 {
		return nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("journal: retention: %w", err)
	}
	type wal struct {
		hash  string
		size  int64
		mtime time.Time
	}
	var wals []wal
	var total int64
	for _, e := range entries {
		hash, ok := strings.CutSuffix(e.Name(), ".wal")
		if e.IsDir() || !ok || !validHash(hash) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // vanished mid-pass
		}
		wals = append(wals, wal{hash, info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i].mtime.Before(wals[j].mtime) })
	now := time.Now()
	for _, w := range wals {
		aged := r.Retain > 0 && now.Sub(w.mtime) > r.Retain
		over := r.MaxBytes > 0 && total > r.MaxBytes
		if (aged || over) && s.retireWAL(w.hash) {
			total -= w.size
		}
	}
	return nil
}

// retireWAL deletes the WAL of hash if it is sealed and no sweep has it
// open. It holds s.mu throughout, so no Sweep can open the file between
// the check and the delete. A failed delete leaves the file for the next
// pass.
func (s *Store) retireWAL(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.busy[hash] {
		return false
	}
	path := filepath.Join(s.dir, hash+".wal")
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	st, err := f.Stat()
	done := err == nil && sealed(f, st.Size())
	f.Close()
	if !done || os.Remove(path) != nil {
		return false
	}
	s.metrics.Retired.Inc()
	return true
}

// sealed reports whether the size-byte WAL r ends with a done frame: the
// current one, or the 23-byte one of releases whose done payload had no
// trailing newline. Cell payloads are JSON, which holds no NUL byte, so
// neither a cell record nor the torn tail of one can put a done frame's
// length header (10 00 00 00, or 0f 00 00 00) in place: a WAL the journal
// wrote is sealed only when it ends with a complete done record.
func sealed(r io.ReaderAt, size int64) bool {
	tail := make([]byte, min(size, int64(len(doneFrame))))
	if _, err := r.ReadAt(tail, size-int64(len(tail))); err != nil {
		return false
	}
	return bytes.HasSuffix(tail, doneFrame) || bytes.HasSuffix(tail, legacyDoneFrame)
}
