package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/sweep"
)

// Retention is the journal store's compaction policy.
type Retention struct {
	// Retain ages out completed sweeps: a done WAL whose mtime is older
	// than Retain is deleted outright (0 = keep forever).
	Retain time.Duration
	// MaxBytes bounds the journal directory: past it, the oldest done WALs
	// are deleted until the directory fits (0 = unbounded). In-progress
	// WALs never count against deletion — only compaction's size budget
	// cannot shrink them.
	MaxBytes int64
	// Now overrides the clock (tests).
	Now func() time.Time
}

// CompactStats reports what one Compact pass did.
type CompactStats struct {
	// Compacted counts done WALs rewritten to terse stubs.
	Compacted int
	// Removed counts done WALs deleted (aged out or over budget).
	Removed int
	// SkippedBusy counts WALs left alone because their sweep was open.
	SkippedBusy int
	// Bytes is the directory's WAL footprint after the pass.
	Bytes int64
}

// walInfo is one WAL's scan summary.
type walInfo struct {
	hash   string
	path   string
	size   int64
	mtime  time.Time
	clean  bool // no torn or corrupt tail
	done   bool
	extras int // records a stub would drop: everything but done
}

// Compact shrinks the journal directory under the given policy. Completed
// sweeps' WALs are rewritten to a stub, a lone done record — replay of a
// stub reports the sweep done with zero completed cells, so a
// resubmission re-executes the whole grid, which is deterministic and
// therefore byte-identical to the archived run. Aged-out and over-budget
// done WALs are deleted entirely. In-progress WALs — no done record, or a
// corrupt tail awaiting replay repair — are never touched, and a sweep
// that is open right now is skipped, so compaction can run on any schedule
// next to live traffic.
func (s *Store) Compact(r Retention) (CompactStats, error) {
	now := time.Now
	if r.Now != nil {
		now = r.Now
	}
	var stats CompactStats
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return stats, fmt.Errorf("journal: compact: %w", err)
	}
	var done []walInfo // candidates for the size budget, oldest first
	for _, e := range entries {
		name := e.Name()
		hash, ok := strings.CutSuffix(name, ".wal")
		if e.IsDir() || !ok || !validHash(hash) {
			continue
		}
		info, skipped := s.compactOne(hash, now(), r.Retain, &stats)
		if skipped {
			continue
		}
		stats.Bytes += info.size
		if info.clean && info.done {
			done = append(done, info)
		}
	}
	if r.MaxBytes > 0 && stats.Bytes > r.MaxBytes {
		sort.Slice(done, func(i, j int) bool { return done[i].mtime.Before(done[j].mtime) })
		for _, info := range done {
			if stats.Bytes <= r.MaxBytes {
				break
			}
			if !s.claim(info.hash) {
				stats.SkippedBusy++
				continue
			}
			err := os.Remove(info.path)
			s.release(info.hash)
			if err != nil && !errors.Is(err, os.ErrNotExist) {
				return stats, fmt.Errorf("journal: compact: %w", err)
			}
			stats.Bytes -= info.size
			stats.Removed++
			s.metrics.Retired.Inc()
		}
	}
	return stats, nil
}

// claim marks hash busy iff it is not already (the same exclusivity Sweep
// takes), so compaction never races a live sweep on one WAL.
func (s *Store) claim(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.busy[hash] {
		return false
	}
	s.busy[hash] = true
	return true
}

func (s *Store) release(hash string) {
	s.mu.Lock()
	delete(s.busy, hash)
	s.mu.Unlock()
}

// compactOne handles one WAL under the claim: scan, then age out or stub.
// It reports the WAL's post-pass state, or skipped=true when the sweep was
// open or the file vanished mid-pass.
func (s *Store) compactOne(hash string, now time.Time, retain time.Duration, stats *CompactStats) (walInfo, bool) {
	if !s.claim(hash) {
		stats.SkippedBusy++
		return walInfo{}, true
	}
	defer s.release(hash)

	path := filepath.Join(s.dir, hash+".wal")
	info, err := scanWAL(path)
	if err != nil {
		return walInfo{}, true // vanished or unreadable; not ours to manage
	}
	info.hash = hash
	if !info.clean || !info.done {
		return info, false // in progress (or awaiting tail repair): untouchable
	}
	if retain > 0 && now.Sub(info.mtime) > retain {
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return info, false
		}
		stats.Removed++
		s.metrics.Retired.Inc()
		return walInfo{}, true
	}
	if info.extras == 0 {
		return info, false // already a stub
	}
	if err := writeStub(path, hash, info.mtime); err != nil {
		return info, false // keep the full WAL; nothing lost
	}
	if st, err := os.Stat(path); err == nil {
		info.size = st.Size()
	}
	info.extras = 0
	stats.Compacted++
	s.metrics.Compactions.Inc()
	return info, false
}

// scanWAL reads a WAL without side effects (no truncation — that is
// replay's job) and summarizes it.
func scanWAL(path string) (walInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return walInfo{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return walInfo{}, err
	}
	info := walInfo{path: path, size: st.Size(), mtime: st.ModTime()}
	_, info.clean = readRecords(f, info.size, func(row sweep.StreamRow) {
		if row.Type == "done" {
			info.done = true
		} else {
			info.extras++
		}
	})
	return info, nil
}

// writeStub atomically replaces a done WAL with its stub, a lone done
// record, preserving the original mtime so age-based retention still sees
// the sweep's completion time, not the compaction's.
func writeStub(path, hash string, mtime time.Time) error {
	buf, err := encodeFrame(doneRow)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+hash+".stub*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func() { f.Close(); os.Remove(tmp) }
	if _, err := f.Write(buf); err != nil {
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Chtimes(tmp, mtime, mtime); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
