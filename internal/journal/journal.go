// Package journal is the coordinator's durable sweep log: an append-only,
// CRC-framed, fsync'd write-ahead file per sweep spec (keyed by the
// spec's content hash) recording each completed cell and, once the grid
// is complete, a done record. After a crash, reopening the journal replays
// the completed cells, so the coordinator re-emits them verbatim and
// executes only the rest — grid indices and per-cell seeds are
// split-stable, which is what makes the resumed run's canonical output
// byte-identical to an uninterrupted one.
//
// File format: one file per sweep at <dir>/<specHash>.wal, a sequence of
// records framed
//
//	uint32 LE payload length | uint32 LE CRC32-IEEE(payload) | payload
//
// where a payload is a sweep.StreamRow: a cell record holds the very line
// the sweep streamed, and the done record is {"type":"done"}. Replay also
// reads the HTML-escaped payloads of earlier releases, and skips rows of
// any other type, such as their start and range records. It stops at the
// first torn or corrupt record and truncates the file there — the tail a
// crash mid-append leaves behind is repaired, never trusted. Appends fsync
// before returning, so a record the coordinator acted on (streamed to a
// client) survives a kill -9.
//
// Retention (Store.SetRetention) deletes only sealed WALs, those ending
// with their done record, and runs synchronously: once when the policy is
// set and again each time a sealed sweep is closed.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// maxRecord caps one record at 64 MiB, so a corrupt length prefix cannot
// drive a giant allocation during replay.
const maxRecord = 64 << 20

// Store manages the journals of one directory, at most one open Sweep per
// spec hash at a time.
type Store struct {
	dir     string
	metrics *Metrics

	mu   sync.Mutex
	busy map[string]bool

	retireMu  sync.Mutex // serializes retention passes
	retention Retention
}

// Metrics is the journal's instrumentation (pp_journal_* families).
type Metrics struct {
	// Appends counts records appended, by record type.
	Appends *metrics.CounterVec
	// AppendErrors counts failed appends (write or fsync).
	AppendErrors *metrics.Counter
	// ReplayedCells counts completed cells recovered from disk on open.
	ReplayedCells *metrics.Counter
	// Recoveries counts journal opens that found prior progress.
	Recoveries *metrics.Counter
	// Truncations counts corrupt or torn journal tails repaired on open.
	Truncations *metrics.Counter
	// Retired counts done WALs deleted by retention (age or size budget).
	Retired *metrics.Counter
}

func newJournalMetrics() *Metrics {
	sub := func(name, help string) metrics.Opts {
		return metrics.Opts{Namespace: "pp", Subsystem: "journal", Name: name, Help: help}
	}
	return &Metrics{
		Appends: metrics.NewCounterVec(
			sub("appends_total", "Journal records appended, by record type."),
			[]string{"type"}),
		AppendErrors: metrics.NewCounter(
			sub("append_errors_total", "Journal appends that failed to write or sync.")),
		ReplayedCells: metrics.NewCounter(
			sub("replayed_cells_total", "Completed cells recovered from journals on open.")),
		Recoveries: metrics.NewCounter(
			sub("recoveries_total", "Journal opens that found prior sweep progress.")),
		Truncations: metrics.NewCounter(
			sub("truncations_total", "Corrupt or torn journal tails truncated during replay.")),
		Retired: metrics.NewCounter(
			sub("retired_total", "Completed sweep WALs deleted by retention policy.")),
	}
}

// Metrics returns the store's instrumentation.
func (s *Store) Metrics() *Metrics { return s.metrics }

// Collectors returns every collector of the set, for registration.
func (m *Metrics) Collectors() []metrics.Collector {
	return []metrics.Collector{m.Appends, m.AppendErrors, m.ReplayedCells, m.Recoveries, m.Truncations, m.Retired}
}

// Register registers the whole set into reg.
func (m *Metrics) Register(reg *metrics.Registry) { reg.MustRegister(m.Collectors()...) }

// Open roots a journal store at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Store{dir: dir, metrics: newJournalMetrics(), busy: make(map[string]bool)}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func validHash(h string) bool {
	if h == "" || len(h) > 128 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if !('a' <= c && c <= 'z' || '0' <= c && c <= '9') {
			return false
		}
	}
	return true
}

// doneRow is the done record's payload, and doneFrame the record as the
// WAL stores it.
var (
	doneRow   = sweep.AppendRow(nil, sweep.StreamRow{Type: "done"})
	doneFrame = encodeFrame(doneRow)
)

// Sweep is one open sweep journal: the replayed state plus an append
// handle. Appends are serialized internally; a Sweep belongs to one sweep
// execution at a time (Store.Sweep enforces this in-process).
type Sweep struct {
	store *Store
	hash  string

	mu     sync.Mutex
	f      *os.File
	closed bool

	completed []sweep.CellResult
	seen      map[int]bool
	done      bool
	sealed    bool // the file ends with the done frame
}

// Sweep opens (or creates) the journal of one sweep spec and replays it.
// A second Sweep for the same hash before Close errors: concurrent
// executions of one spec would interleave appends.
func (s *Store) Sweep(specHash string) (*Sweep, error) {
	if !validHash(specHash) {
		return nil, fmt.Errorf("journal: invalid spec hash %q", specHash)
	}
	s.mu.Lock()
	if s.busy[specHash] {
		s.mu.Unlock()
		return nil, fmt.Errorf("journal: sweep %s is already in progress", specHash)
	}
	s.busy[specHash] = true
	s.mu.Unlock()

	j, err := s.open(specHash)
	if err != nil {
		s.mu.Lock()
		delete(s.busy, specHash)
		s.mu.Unlock()
		return nil, err
	}
	return j, nil
}

func (s *Store) open(specHash string) (*Sweep, error) {
	path := filepath.Join(s.dir, specHash+".wal")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Sweep{store: s, hash: specHash, f: f, seen: make(map[int]bool)}
	if err := j.replay(); err != nil {
		f.Close()
		return nil, err
	}
	if len(j.completed) > 0 {
		s.metrics.Recoveries.Inc()
	}
	return j, nil
}

// replay scans the journal from the start, folding records into the
// in-memory state, and truncates at the first corruption.
func (j *Sweep) replay() error {
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	st, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	valid, clean := readRecords(j.f, st.Size(), j.apply)
	if !clean {
		// A torn or corrupt tail — a crash mid-append. Everything before
		// valid replayed cleanly and is kept; the tail is cut so the next
		// append extends a valid log.
		j.store.metrics.Truncations.Inc()
		if err := j.f.Truncate(valid); err != nil {
			return fmt.Errorf("journal: truncating corrupt tail: %w", err)
		}
	}
	if _, err := j.f.Seek(valid, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.sealed = sealed(j.f, valid)
	return nil
}

// readRecords is the WAL record reader replay uses. It decodes the
// records of a size-byte WAL from r in order, handing each to fn, and
// stops at the first torn header, length out of range (zero, over
// maxRecord, or past the end of the file), CRC mismatch or undecodable
// payload; a corrupt length therefore never allocates more than the file
// holds. valid is the length of the longest valid prefix (the offset just
// past the last good record); clean reports whether the input ended
// exactly there.
func readRecords(r io.Reader, size int64, fn func(sweep.StreamRow)) (valid int64, clean bool) {
	var header [8]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return valid, errors.Is(err, io.EOF)
		}
		n := binary.LittleEndian.Uint32(header[:4])
		if n == 0 || n > maxRecord || int64(n) > size-valid-8 {
			return valid, false
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return valid, false
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(header[4:]) {
			return valid, false
		}
		var row sweep.StreamRow
		if err := json.Unmarshal(payload, &row); err != nil {
			return valid, false
		}
		fn(row)
		valid += 8 + int64(n)
	}
}

// apply folds one replayed record into the in-memory state. Duplicate
// cell indices keep the first occurrence (appends happen post-dedup, but
// replay never trusts that). Other record types are skipped.
func (j *Sweep) apply(row sweep.StreamRow) {
	switch row.Type {
	case "cell":
		if row.Cell != nil && !j.seen[row.Cell.Index] {
			j.seen[row.Cell.Index] = true
			j.completed = append(j.completed, *row.Cell)
			j.store.metrics.ReplayedCells.Inc()
		}
	case "done":
		j.done = true
	}
}

// Completed returns the cells recovered by replay, in append order. The
// caller re-emits them verbatim and must not re-append them.
func (j *Sweep) Completed() []sweep.CellResult { return j.completed }

// Done reports whether a prior run appended its completion record — every
// cell is in Completed and nothing remains to execute.
func (j *Sweep) Done() bool { return j.done }

// AppendCell logs the completed cell at grid index, fsync'd: once this
// returns, the cell survives a crash. row is the cell's stream row as
// sweep.AppendRow encoded it. Duplicate indices (already journaled or
// replayed) are ignored.
func (j *Sweep) AppendCell(index int, row []byte) error {
	j.mu.Lock()
	dup := j.seen[index]
	j.mu.Unlock()
	if dup {
		return nil
	}
	if err := j.append("cell", row); err != nil {
		return err
	}
	j.mu.Lock()
	j.seen[index] = true
	j.mu.Unlock()
	return nil
}

// AppendDone seals the journal: the sweep ran to completion. A file that
// already ends with its done record is not sealed twice; one whose done
// record is followed by cells (a stub an earlier release wrote, then
// re-executed) is sealed again.
func (j *Sweep) AppendDone() error {
	j.mu.Lock()
	sealed := j.sealed
	j.mu.Unlock()
	if sealed {
		return nil
	}
	if err := j.append("done", doneRow); err != nil {
		return err
	}
	j.done = true
	return nil
}

// append frames payload and writes it, fsync'd, counting the outcome
// under the record type typ. Replay reads an empty payload as
// corruption, so none is written.
func (j *Sweep) append(typ string, payload []byte) (err error) {
	defer func() {
		if err != nil {
			j.store.metrics.AppendErrors.Inc()
		} else {
			j.store.metrics.Appends.WithLabelValues(typ).Inc()
		}
	}()
	if len(payload) == 0 || len(payload) > maxRecord {
		return fmt.Errorf("journal: record of %d bytes is outside (0, %d]", len(payload), maxRecord)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: append after close")
	}
	if err := faultinject.Hit(faultinject.PointJournalAppend); err != nil {
		return err
	}
	j.sealed = false
	if _, err := j.f.Write(encodeFrame(payload)); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := faultinject.Hit(faultinject.PointJournalSync); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	j.sealed = typ == "done"
	return nil
}

// encodeFrame frames one record payload for the WAL.
func encodeFrame(payload []byte) []byte {
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame
}

// Close releases the journal; the spec hash becomes openable again. When
// the file is sealed, Close then runs a retention pass, which may retire
// this very WAL.
func (j *Sweep) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	err := j.f.Close()
	j.mu.Unlock()
	j.store.mu.Lock()
	delete(j.store.busy, j.hash)
	j.store.mu.Unlock()
	if j.sealed {
		err = errors.Join(err, j.store.retire())
	}
	return err
}
