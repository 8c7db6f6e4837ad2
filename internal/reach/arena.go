package reach

// This file implements the storage layer of the exploration core: a flat
// arena holding every configuration of a graph back to back, and an
// open-addressing hash index that dedups configurations by hashing their
// raw int64 coordinates. Neither allocates per configuration: the arena
// grows by amortized append, and the index stores node ids plus cached
// hashes, so the dedup hot path never materializes a string key
// (multiset.Vec.Key remains the serialization format, not the dedup format).
// Both reset to empty while keeping their capacity, so one graph can be
// re-explored from many start configurations (see VerifyRange).

import "repro/internal/wordhash"

// hashWords hashes the coordinates of a configuration with the shared
// raw-coordinate hasher (FNV-1a + Murmur3 avalanche; see wordhash).
func hashWords(w []int64) uint64 { return wordhash.Sum(w) }

func eqWords(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// configStore is the arena: configuration i occupies
// arena[i*dim : (i+1)*dim]. Configurations are immutable once added until
// the next reset, so slices handed out before an append-triggered
// reallocation stay valid (they alias the old backing array, whose
// contents never change).
type configStore struct {
	dim   int
	n     int
	arena []int64
}

// at returns configuration i as a slice view into the arena.
func (s *configStore) at(i int32) []int64 {
	o := int(i) * s.dim
	return s.arena[o : o+s.dim : o+s.dim]
}

// add appends a copy of c and returns its id.
func (s *configStore) add(c []int64) int32 {
	s.arena = append(s.arena, c...)
	s.n++
	return int32(s.n - 1)
}

// reset empties the store, keeping the arena's capacity.
func (s *configStore) reset() {
	s.n = 0
	s.arena = s.arena[:0]
}

// nodeIndex maps configuration coordinates to node ids: one open-addressing
// table with linear probing. Each slot stores the node id (+1, so the zero
// value is "empty") and the full hash, so probe misses are rejected without
// touching the arena and rehashing never recomputes hashes.
type nodeIndex struct {
	slots  []int32 // node id + 1; 0 = empty
	hashes []uint64
	used   int
}

// reset empties the index, keeping its table.
func (ix *nodeIndex) reset() {
	clear(ix.slots)
	ix.used = 0
}

// lookup returns the id of the configuration equal to c (with hash h), if
// present.
func (ix *nodeIndex) lookup(st *configStore, c []int64, h uint64) (int32, bool) {
	if len(ix.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		id := ix.slots[i]
		if id == 0 {
			return 0, false
		}
		if ix.hashes[i] == h && eqWords(st.at(id-1), c) {
			return id - 1, true
		}
	}
}

// add records id for a configuration with hash h. The configuration must
// already be in the store and must not be in the index.
func (ix *nodeIndex) add(id int32, h uint64) {
	if (ix.used+1)*4 > len(ix.slots)*3 {
		ix.grow()
	}
	ix.insert(id, h)
}

func (ix *nodeIndex) insert(id int32, h uint64) {
	mask := uint64(len(ix.slots) - 1)
	i := h & mask
	for ix.slots[i] != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = id + 1
	ix.hashes[i] = h
	ix.used++
}

// grow doubles the table (min 64 slots) and reinserts from the cached
// hashes; the arena is not consulted.
func (ix *nodeIndex) grow() {
	newCap := 64
	if len(ix.slots) > 0 {
		newCap = len(ix.slots) * 2
	}
	oldSlots, oldHashes := ix.slots, ix.hashes
	ix.slots = make([]int32, newCap)
	ix.hashes = make([]uint64, newCap)
	ix.used = 0
	for i, id := range oldSlots {
		if id != 0 {
			ix.insert(id-1, oldHashes[i])
		}
	}
}
