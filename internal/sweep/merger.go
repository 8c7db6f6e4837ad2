package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// SpecHash is a sweep spec's content hash — hex SHA-256 of its canonical
// JSON encoding. It keys the coordinator's durable journal: two runs of
// the same spec resume each other; any change to the spec starts fresh.
func SpecHash(spec Spec) (string, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("sweep: hashing spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Merger is Pipeline's reorder buffer between an executor's deliveries,
// which arrive in whatever order cells complete, and the grid-ordered
// output stream. It dedups on cell index (a retried range — or a journal
// replay racing fresh execution — may deliver a cell twice), folds every
// first delivery into the sweep's Collector, and releases the contiguous
// prefix in index order through onCell. Memory beyond the grid's index
// tables is bounded by the reorder window: the cells delivered ahead of
// the first one still missing.
type Merger struct {
	mu        sync.Mutex
	pos       map[int]int // grid index → position in the expanded order
	buf       []*CellResult
	seen      []bool
	next      int
	remaining int
	col       *Collector
	onCell    func(CellResult)
	done      chan struct{}
}

// newMerger builds a reorder buffer over the expanded cells. col receives
// every first delivery for aggregation; onCell observes cells in
// grid-index order, serialized.
func newMerger(cells []Cell, col *Collector, onCell func(CellResult)) *Merger {
	m := &Merger{
		pos:       make(map[int]int, len(cells)),
		buf:       make([]*CellResult, len(cells)),
		seen:      make([]bool, len(cells)),
		remaining: len(cells),
		col:       col,
		onCell:    onCell,
		done:      make(chan struct{}),
	}
	for i, c := range cells {
		m.pos[c.Index] = i
	}
	if len(cells) == 0 {
		close(m.done)
	}
	return m
}

// Add folds one delivered cell in; it reports false for duplicates and
// cells outside the grid. When the last cell lands, Done's channel closes.
func (m *Merger) Add(cr CellResult) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pos[cr.Index]
	if !ok || m.seen[p] {
		return false
	}
	m.seen[p] = true
	m.buf[p] = &cr
	m.col.Add(cr)
	for m.next < len(m.buf) && m.buf[m.next] != nil {
		m.onCell(*m.buf[m.next])
		m.buf[m.next] = nil // emitted: free the row, keep seen[]
		m.next++
	}
	m.remaining--
	if m.remaining == 0 {
		close(m.done)
	}
	return true
}

// Done returns a channel closed once every grid cell has been merged.
func (m *Merger) Done() <-chan struct{} { return m.done }
