package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"

	"repro/internal/engine"
	"repro/internal/sweep"
)

// Resolver maps a protocol reference to its content hash — the routing key
// that keeps each worker's artifact cache hot for its slice of the grid.
// It is consulted once per distinct reference, not per cell.
type Resolver func(engine.ProtocolRef) (string, error)

// EngineResolver resolves references through an engine's registry and hashes
// the resolved protocol's canonical JSON form — the same hash that keys the
// engine artifact cache, so routing affinity and cache affinity coincide
// even when a registry spec and an inline protocol denote the same protocol.
func EngineResolver(eng *engine.Engine) Resolver {
	return func(ref engine.ProtocolRef) (string, error) {
		entry, err := eng.Resolve(ref)
		if err != nil {
			return "", err
		}
		return engine.Hash(entry.Protocol), nil
	}
}

// refKey is the memoization key of a protocol reference: cheap to compute
// per cell, stable across cells of the same reference.
func refKey(req engine.Request) string {
	switch {
	case req.Protocol.Spec != "":
		return "spec:" + req.Protocol.Spec
	case len(req.Protocol.Inline) > 0:
		sum := sha256.Sum256(req.Protocol.Inline)
		return "inline:" + hex.EncodeToString(sum[:])
	default:
		// Protocol-free bounds cells: route by state count, so a pure
		// bounds sweep still spreads across the cluster.
		return fmt.Sprintf("states:%d", req.States)
	}
}

// group is the unit of affinity: every cell of one protocol content hash,
// in ascending grid-index order.
type group struct {
	hash  string
	cells []sweep.Cell
}

// groupByHash buckets expanded cells by protocol content hash, preserving
// the grid order of first appearance (deterministic given the spec). A
// reference that does not resolve is grouped under its refKey instead: its
// cells still run, and each fails on its own, as in a local sweep.
func groupByHash(cells []sweep.Cell, resolve Resolver) []group {
	hashes := make(map[string]string) // refKey → content hash
	index := make(map[string]int)     // content hash → groups position
	var groups []group
	for _, c := range cells {
		key := refKey(c.Request)
		h, ok := hashes[key]
		if !ok {
			h = key // protocol-free: the key is already content-determined
			if !c.Request.Protocol.IsZero() {
				if rh, err := resolve(c.Request.Protocol); err == nil {
					h = rh
				}
			}
			hashes[key] = h
		}
		gi, ok := index[h]
		if !ok {
			gi = len(groups)
			index[h] = gi
			groups = append(groups, group{hash: h})
		}
		groups[gi].cells = append(groups[gi].cells, c)
	}
	return groups
}

// task is one dispatchable cell range: a slice of one group, so all its
// cells share a protocol (and therefore a preferred worker). attempts
// counts remote dispatches; past DispatchOptions.MaxAttempts the task runs
// locally instead.
type task struct {
	hash     string
	cells    []sweep.Cell
	attempts int
	// sheds counts consecutive 503 backpressure retries (reset is
	// unnecessary: a successful dispatch retires the task).
	sheds int
}

// chunk splits groups into tasks of at most rangeCells cells — the retry
// granularity: a failed range re-executes at most this many cells.
func chunk(groups []group, rangeCells int) []*task {
	var tasks []*task
	for _, g := range groups {
		for off := 0; off < len(g.cells); off += rangeCells {
			end := min(off+rangeCells, len(g.cells))
			tasks = append(tasks, &task{hash: g.hash, cells: g.cells[off:end]})
		}
	}
	return tasks
}

// indices returns the task's grid indices (ascending).
func (t *task) indices() []int {
	out := make([]int, len(t.cells))
	for i, c := range t.cells {
		out[i] = c.Index
	}
	return out
}

// route picks the worker for a protocol hash by rendezvous (highest random
// weight) hashing: each (hash, worker) pair scores independently and the
// highest score wins. Routing is stable — a membership change only moves
// the groups whose winner changed — so worker artifact caches stay hot
// across sweeps and across joins/leaves.
func route(hash string, workers []Worker) (Worker, bool) {
	var (
		best  Worker
		score uint64
		found bool
	)
	for _, w := range workers {
		s := rendezvousScore(hash, w.ID)
		if !found || s > score || (s == score && w.ID < best.ID) {
			best, score, found = w, s, true
		}
	}
	return best, found
}

// rendezvousScore hashes the (protocol hash, worker ID) pair with FNV-1a
// plus a finalizing avalanche, decorrelating workers that share a prefix.
func rendezvousScore(hash, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(hash))
	h.Write([]byte{0xff})
	h.Write([]byte(id))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}
