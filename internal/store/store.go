// Package store is the disk layer under the engine's in-memory artifact
// cache: a content-hash-keyed, file-per-entry blob store that survives
// restarts, so a recycled worker serves its first repeated-protocol
// request from disk instead of recomputing its stable sets.
//
// Layout: one file per entry at <dir>/<kind>/<hash>, where kind names the
// artifact kind ("stable", "basis") and hash is the protocol's content
// hash. Each file is framed
//
//	"PPA1" | uint32 LE payload length | uint32 LE CRC32-IEEE(payload) | payload
//
// so torn writes and bit rot are detected on read. The payload itself is
// a versioned encoding owned by the caller (internal/engine).
//
// Writes are atomic: payload goes to a temp file in the same directory,
// is fsync'd, then renamed over the final path — a crash mid-Put leaves
// either the old entry or none, never a half-written one. Reads are
// corruption-tolerant: an entry that fails framing or CRC is deleted and
// reported as a miss, so the caller recomputes rather than trusting it.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/faultinject"
	"repro/internal/metrics"
)

var magic = [4]byte{'P', 'P', 'A', '1'}

// maxPayload caps a single entry at 1 GiB — far above any real artifact,
// low enough that a corrupt length prefix can't drive a giant allocation.
const maxPayload = 1 << 30

// ErrCorrupt is returned (wrapped) by Get when an entry fails framing or
// checksum validation. The entry has already been deleted by then.
var ErrCorrupt = errors.New("store: corrupt entry")

// Store is a disk-backed artifact store rooted at one directory. Methods
// are safe for concurrent use; concurrent Puts of the same key are
// last-writer-wins, which is harmless because entries are content-keyed
// (every writer writes the same artifact).
type Store struct {
	dir     string
	metrics *Metrics
	// gc is the size-governance state, nil until EnableGC (see gc.go),
	// which sets it before the store is shared.
	gc *gcState
}

// Metrics is the store's instrumentation (pp_store_* families).
type Metrics struct {
	// Reads counts Get calls by result: hit, miss, corrupt, error.
	Reads *metrics.CounterVec
	// Writes counts Put calls by result: ok, error.
	Writes *metrics.CounterVec
	// GCEvictions counts entries the size-governance GC deleted.
	GCEvictions *metrics.Counter
	// GCErrors counts eviction deletes that failed (retried on the next
	// write over budget).
	GCErrors *metrics.Counter
	// GCBytes reports the governed on-disk size at gather time (0 while
	// governance is disabled).
	GCBytes *metrics.GaugeFunc
}

func newStoreMetrics(s *Store) *Metrics {
	sub := func(name, help string) metrics.Opts {
		return metrics.Opts{Namespace: "pp", Subsystem: "store", Name: name, Help: help}
	}
	return &Metrics{
		Reads: metrics.NewCounterVec(
			sub("reads_total", "Disk artifact-store reads, by result (hit, miss, corrupt, error)."),
			[]string{"result"}),
		Writes: metrics.NewCounterVec(
			sub("writes_total", "Disk artifact-store writes, by result (ok, error)."),
			[]string{"result"}),
		GCEvictions: metrics.NewCounter(
			sub("gc_evictions_total", "Artifact-store entries evicted by the size-governance GC.")),
		GCErrors: metrics.NewCounter(
			sub("gc_errors_total", "Artifact-store GC eviction deletes that failed.")),
		GCBytes: metrics.NewGaugeFunc(
			sub("gc_bytes", "Governed artifact-store size in bytes (0 while GC is disabled)."),
			func() float64 { return float64(s.GCBytes()) }),
	}
}

// Metrics returns the store's instrumentation.
func (s *Store) Metrics() *Metrics { return s.metrics }

// Collectors returns every collector of the set, for registration.
func (m *Metrics) Collectors() []metrics.Collector {
	return []metrics.Collector{m.Reads, m.Writes, m.GCEvictions, m.GCErrors, m.GCBytes}
}

// Register registers the whole set into reg.
func (m *Metrics) Register(reg *metrics.Registry) { reg.MustRegister(m.Collectors()...) }

// Open roots a store at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir}
	s.metrics = newStoreMetrics(s)
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validKey keeps kinds and hashes inside one path segment: lowercase
// hex/alphanumerics only, so a hostile hash can't traverse out of dir.
func validKey(part string) bool {
	if part == "" || len(part) > 128 {
		return false
	}
	for i := 0; i < len(part); i++ {
		c := part[i]
		if !('a' <= c && c <= 'z' || '0' <= c && c <= '9') {
			return false
		}
	}
	return true
}

func (s *Store) path(kind, hash string) (string, error) {
	if !validKey(kind) || !validKey(hash) {
		return "", fmt.Errorf("store: invalid key %q/%q", kind, hash)
	}
	return filepath.Join(s.dir, kind, hash), nil
}

// Get returns the payload stored under (kind, hash), or (nil, nil) on a
// clean miss. A corrupt entry is deleted and surfaces as an
// ErrCorrupt-wrapped error; callers treat it exactly like a miss (the
// next Put rewrites it) but can log or count it.
func (s *Store) Get(kind, hash string) ([]byte, error) {
	p, err := s.path(kind, hash)
	if err != nil {
		s.metrics.Reads.WithLabelValues("error").Inc()
		return nil, err
	}
	raw, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		s.metrics.Reads.WithLabelValues("miss").Inc()
		return nil, nil
	}
	if err == nil {
		// The store.read failpoint models bit rot: an armed read behaves
		// exactly like an on-disk corruption, exercising the
		// delete-and-recompute path.
		err = faultinject.Hit(faultinject.PointStoreRead)
	}
	if err != nil {
		if errors.Is(err, faultinject.ErrInjected) {
			os.Remove(p)
			s.gcForget(kind, hash)
			s.metrics.Reads.WithLabelValues("corrupt").Inc()
			return nil, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, kind, hash, err)
		}
		s.metrics.Reads.WithLabelValues("error").Inc()
		return nil, fmt.Errorf("store: read %s/%s: %w", kind, hash, err)
	}
	payload, err := Decode(raw)
	if err != nil {
		// Never trust a bad entry: delete it so the recompute's Put
		// replaces it, and the corruption can't resurface.
		os.Remove(p)
		s.gcForget(kind, hash)
		s.metrics.Reads.WithLabelValues("corrupt").Inc()
		return nil, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, kind, hash, err)
	}
	s.gcTouch(kind, hash, int64(len(raw)))
	s.metrics.Reads.WithLabelValues("hit").Inc()
	return payload, nil
}

// gcTouch marks an entry as recently used in the GC index, if enabled.
func (s *Store) gcTouch(kind, hash string, size int64) {
	if g := s.gc; g != nil {
		g.record(kind, hash, size)
	}
}

// gcForget drops an entry from the GC index, if enabled.
func (s *Store) gcForget(kind, hash string) {
	if g := s.gc; g != nil {
		g.forget(kind, hash)
	}
}

// Put stores payload under (kind, hash) atomically: temp file, fsync,
// rename. Failures leave any previous entry intact. Under size governance
// (EnableGC) a Put that leaves the store over budget evicts
// least-recently-used entries until it fits, before it returns.
func (s *Store) Put(kind, hash string, payload []byte) error {
	err := s.put(kind, hash, payload)
	if err != nil {
		s.metrics.Writes.WithLabelValues("error").Inc()
		return err
	}
	s.gcTouch(kind, hash, int64(12+len(payload)))
	s.metrics.Writes.WithLabelValues("ok").Inc()
	return nil
}

func (s *Store) put(kind, hash string, payload []byte) error {
	if len(payload) > maxPayload {
		return fmt.Errorf("store: payload %d bytes exceeds limit", len(payload))
	}
	p, err := s.path(kind, hash)
	if err != nil {
		return err
	}
	if err := faultinject.Hit(faultinject.PointStoreWrite); err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.CreateTemp(dir, "."+hash+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	cleanup := func() { f.Close(); os.Remove(tmp) }
	if _, err := f.Write(Encode(payload)); err != nil {
		cleanup()
		return fmt.Errorf("store: write %s/%s: %w", kind, hash, err)
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("store: sync %s/%s: %w", kind, hash, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: close %s/%s: %w", kind, hash, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: rename %s/%s: %w", kind, hash, err)
	}
	return nil
}

// Delete removes the entry under (kind, hash); missing entries are fine.
func (s *Store) Delete(kind, hash string) error {
	p, err := s.path(kind, hash)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: delete %s/%s: %w", kind, hash, err)
	}
	s.gcForget(kind, hash)
	return nil
}

// Encode frames a payload for storage: magic, length, CRC, payload.
func Encode(payload []byte) []byte {
	out := make([]byte, 12+len(payload))
	copy(out, magic[:])
	binary.LittleEndian.PutUint32(out[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[8:], crc32.ChecksumIEEE(payload))
	copy(out[12:], payload)
	return out
}

// Decode validates a frame and returns its payload.
func Decode(raw []byte) ([]byte, error) {
	if len(raw) < 12 || [4]byte(raw[:4]) != magic {
		return nil, errors.New("bad frame header")
	}
	n := binary.LittleEndian.Uint32(raw[4:])
	if n > maxPayload || int(n) != len(raw)-12 {
		return nil, fmt.Errorf("frame length %d does not match %d payload bytes", n, len(raw)-12)
	}
	payload := raw[12:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(raw[8:]) {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}
