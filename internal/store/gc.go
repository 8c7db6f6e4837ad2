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

// GCOptions configures the store's size governance (EnableGC).
type GCOptions struct {
	// MaxBytes is the on-disk budget. When the store grows past it, the GC
	// evicts least-recently-used entries until it is back under
	// LowWater×MaxBytes. Must be positive.
	MaxBytes int64
	// LowWater is the fraction of MaxBytes to drain down to once a pass
	// starts, so the GC does hysteresis instead of evicting one entry per
	// Put at the boundary (0 = 0.9).
	LowWater float64
	// Interval is the background pass period (0 = 5s). Puts additionally
	// kick a pass as soon as the budget is exceeded. Negative disables the
	// background goroutine entirely — passes then run only through RunGC,
	// which tests use to keep eviction order deterministic.
	Interval time.Duration
}

func (o GCOptions) withDefaults() GCOptions {
	if o.LowWater <= 0 || o.LowWater > 1 {
		o.LowWater = 0.9
	}
	if o.Interval == 0 {
		o.Interval = 5 * time.Second
	}
	return o
}

// gcEntry is one tracked on-disk entry.
type gcEntry struct {
	kind, hash string
	size       int64
	elem       *list.Element
}

// gcState is the store's LRU index plus the background eviction loop.
type gcState struct {
	store *Store
	opts  GCOptions

	mu      sync.Mutex
	entries map[string]*gcEntry
	lru     *list.List // *gcEntry; front = most recently used
	total   int64

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// EnableGC turns on size governance: the store keeps an in-memory LRU
// index of every on-disk entry (rebuilt by a scan at enable time, ordered
// by file mtime) and a background goroutine evicts least-recently-used
// entries whenever the total exceeds opts.MaxBytes. Eviction is safe
// against concurrent readers: entries are whole-file reads, so a Get
// racing an unlink either sees the complete old bytes or a clean miss —
// never a torn artifact.
//
// EnableGC must be called once, before the store is shared across
// goroutines, and pairs with CloseGC.
func (s *Store) EnableGC(opts GCOptions) error {
	if opts.MaxBytes <= 0 {
		return errors.New("store: gc MaxBytes must be positive")
	}
	if s.gc.Load() != nil {
		return errors.New("store: gc already enabled")
	}
	g := &gcState{
		store:   s,
		opts:    opts.withDefaults(),
		entries: make(map[string]*gcEntry),
		lru:     list.New(),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := g.scan(); err != nil {
		return err
	}
	s.gc.Store(g)
	if g.opts.Interval < 0 {
		close(g.done) // manual mode: no goroutine for CloseGC to join
		return nil
	}
	go g.loop()
	g.kickAsync()
	return nil
}

// CloseGC stops the background eviction goroutine and drops the index.
// The store keeps working, just ungoverned.
func (s *Store) CloseGC() {
	g := s.gc.Load()
	if g == nil {
		return
	}
	s.gc.Store(nil)
	close(g.stop)
	<-g.done
}

// RunGC executes one synchronous eviction pass (tests and shutdown paths;
// the background goroutine runs the same pass on its own schedule).
func (s *Store) RunGC() {
	if g := s.gc.Load(); g != nil {
		g.pass()
	}
}

// GCBytes reports the index's view of the store's on-disk size, 0 when
// governance is disabled.
func (s *Store) GCBytes() int64 {
	g := s.gc.Load()
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

// record notes a write (or an observed read) of size bytes and moves the
// entry, tracked from now on if it was not, to the LRU front.
func (g *gcState) record(kind, hash string, size int64) {
	key := kind + "/" + hash
	g.mu.Lock()
	e := g.entries[key]
	if e == nil {
		e = &gcEntry{kind: kind, hash: hash}
		e.elem = g.lru.PushFront(e)
		g.entries[key] = e
	}
	g.total += size - e.size
	e.size = size
	g.lru.MoveToFront(e.elem)
	over := g.total > g.opts.MaxBytes
	g.mu.Unlock()
	if over {
		g.kickAsync()
	}
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

// kickAsync requests a pass without blocking (coalesces with any pending
// request).
func (g *gcState) kickAsync() {
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

// loop is the background eviction goroutine.
func (g *gcState) loop() {
	defer close(g.done)
	t := time.NewTicker(g.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-g.kick:
		case <-t.C:
		}
		g.pass()
	}
}

// pass evicts LRU entries until the store is back under the low-water
// mark. A failed delete (including the store.delete failpoint) is
// counted, skipped for this pass and retried on the next one.
func (g *gcState) pass() {
	m := g.store.metrics
	m.GCRuns.Inc()
	g.mu.Lock()
	over := g.total > g.opts.MaxBytes
	g.mu.Unlock()
	if !over {
		return
	}
	low := int64(g.opts.LowWater * float64(g.opts.MaxBytes))
	failed := make(map[*gcEntry]bool)
	for {
		g.mu.Lock()
		if g.total <= low {
			g.mu.Unlock()
			return
		}
		var victim *gcEntry
		for el := g.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*gcEntry)
			if !failed[e] {
				victim = e
				break
			}
		}
		if victim == nil { // every entry left failed this pass
			g.mu.Unlock()
			return
		}
		// Delete under the lock so the index and the disk change
		// together; concurrent Gets are lock-free and rely on whole-file
		// read-vs-unlink atomicity instead.
		err := faultinject.Hit(faultinject.PointStoreDelete)
		if err == nil {
			p := filepath.Join(g.store.dir, victim.kind, victim.hash)
			if rmErr := os.Remove(p); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
				err = rmErr
			}
		}
		if err != nil {
			failed[victim] = true
			g.mu.Unlock()
			m.GCErrors.Inc()
			continue
		}
		g.total -= victim.size
		g.lru.Remove(victim.elem)
		delete(g.entries, victim.kind+"/"+victim.hash)
		g.mu.Unlock()
		m.GCEvictions.Inc()
	}
}
