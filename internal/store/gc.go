package store

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// gcEntry is one tracked on-disk entry.
type gcEntry struct {
	kind, hash string
	size       int64
	elem       *list.Element
}

// gcState is the store's LRU index over its on-disk entries.
type gcState struct {
	store    *Store
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*gcEntry
	lru     *list.List // *gcEntry; front = most recently used
	total   int64
}

// EnableGC turns on size governance: the store keeps an in-memory LRU
// index of every on-disk entry (rebuilt by a scan at enable time, ordered
// by file mtime), and any write or read that leaves the total over
// maxBytes evicts least-recently-used entries until the store fits again,
// before it returns. Eviction is safe against concurrent readers: entries
// are whole-file reads, so a Get racing an unlink either sees the complete
// old bytes or a clean miss — never a torn artifact.
//
// EnableGC must be called once, before the store is shared across
// goroutines.
func (s *Store) EnableGC(maxBytes int64) error {
	if maxBytes <= 0 {
		return errors.New("store: gc max bytes must be positive")
	}
	if s.gc != nil {
		return errors.New("store: gc already enabled")
	}
	g := &gcState{
		store:    s,
		maxBytes: maxBytes,
		entries:  make(map[string]*gcEntry),
		lru:      list.New(),
	}
	if err := g.scan(); err != nil {
		return err
	}
	g.mu.Lock()
	g.evict()
	g.mu.Unlock()
	s.gc = g
	return nil
}

// GCBytes reports the index's view of the store's on-disk size, 0 when
// governance is disabled.
func (s *Store) GCBytes() int64 {
	g := s.gc
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.total
}

// scan walks the store directory and builds the LRU index, oldest mtime at
// the back, so a restarted server starts evicting from genuinely cold
// entries instead of treating everything as fresh.
func (g *gcState) scan() error {
	type scanned struct {
		kind, hash string
		size       int64
		mtime      time.Time
	}
	var found []scanned
	kinds, err := os.ReadDir(g.store.dir)
	if err != nil {
		return fmt.Errorf("store: gc scan: %w", err)
	}
	for _, kd := range kinds {
		if !kd.IsDir() || !validKey(kd.Name()) {
			continue
		}
		files, err := os.ReadDir(filepath.Join(g.store.dir, kd.Name()))
		if err != nil {
			return fmt.Errorf("store: gc scan: %w", err)
		}
		for _, f := range files {
			// Temp files carry a "." prefix and fail validKey; skip them
			// along with anything else that is not a store entry.
			if f.IsDir() || !validKey(f.Name()) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue // deleted mid-scan
			}
			found = append(found, scanned{kd.Name(), f.Name(), info.Size(), info.ModTime()})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, f := range found { // oldest pushed first ends up at the back
		e := &gcEntry{kind: f.kind, hash: f.hash, size: f.size}
		e.elem = g.lru.PushFront(e)
		g.entries[f.kind+"/"+f.hash] = e
		g.total += f.size
	}
	return nil
}

// record notes a write (or an observed read) of size bytes, moves the
// entry, tracked from now on if it was not, to the LRU front, and evicts
// down to the budget if that left the store over it.
func (g *gcState) record(kind, hash string, size int64) {
	key := kind + "/" + hash
	g.mu.Lock()
	defer g.mu.Unlock()
	e := g.entries[key]
	if e == nil {
		e = &gcEntry{kind: kind, hash: hash}
		e.elem = g.lru.PushFront(e)
		g.entries[key] = e
	}
	g.total += size - e.size
	e.size = size
	g.lru.MoveToFront(e.elem)
	g.evict()
}

// forget drops an entry from the index (caller deleted the file).
func (g *gcState) forget(kind, hash string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	key := kind + "/" + hash
	if e := g.entries[key]; e != nil {
		g.total -= e.size
		g.lru.Remove(e.elem)
		delete(g.entries, key)
	}
}

// evict deletes least-recently-used entries until the total fits the
// budget. It runs with g.mu held, so the index and the disk change
// together; concurrent Gets are lock-free and rely on whole-file
// read-vs-unlink atomicity instead. A failed delete (including the
// store.delete failpoint) is counted and skipped: the entry stays tracked
// and is retried by the next write over budget.
func (g *gcState) evict() {
	m := g.store.metrics
	for el := g.lru.Back(); el != nil && g.total > g.maxBytes; {
		victim := el.Value.(*gcEntry)
		el = el.Prev()
		err := faultinject.Hit(faultinject.PointStoreDelete)
		if err == nil {
			p := filepath.Join(g.store.dir, victim.kind, victim.hash)
			if rmErr := os.Remove(p); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
				err = rmErr
			}
		}
		if err != nil {
			m.GCErrors.Inc()
			continue
		}
		g.total -= victim.size
		g.lru.Remove(victim.elem)
		delete(g.entries, victim.kind+"/"+victim.hash)
		m.GCEvictions.Inc()
	}
}
