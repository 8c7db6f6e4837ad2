package reach

// This file implements the storage layer of the exploration core: a flat
// arena holding every configuration of a graph back to back, the
// configuration hash, and an open-addressing hash index that dedups
// configurations by that hash. Neither allocates per configuration: the
// arena grows by amortized append, and the index stores node ids plus
// cached hashes, so the dedup hot path never materializes a string key
// (multiset.Vec.Key remains the serialization format, not the dedup format).
// Both reset to empty in constant time while keeping their capacity, so one
// graph can be re-explored from many start configurations (see VerifyRange).

// The configuration hash is linear before its finalizer:
//
//	hash(c) = fmix64(Σ c[i]·K[i])   (mod 2^64)
//
// with fixed odd per-state coefficients K. Firing a transition t adds the
// constant Δ[t] = K[p2] + K[q2] − K[p] − K[q] to the raw sum, so the
// explorer hashes a successor as fmix64(raw(head) + Δ[t]) without reading
// its coordinates. Equality is still checked word by word, so a collision
// costs a probe, never a wrong node.

// hashCoefs returns K[0..d−1] in dst's storage: K[i] is the splitmix64
// output for i+1, forced odd.
func hashCoefs(dst []uint64, d int) []uint64 {
	dst = dst[:0]
	for i := 1; i <= d; i++ {
		z := uint64(i) * 0x9e3779b97f4a7c15
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		dst = append(dst, (z^z>>31)|1)
	}
	return dst
}

// rawHash returns Σ c[i]·K[i] (mod 2^64), the configuration hash before
// finalization.
func rawHash(coef []uint64, c []int64) uint64 {
	var s uint64
	for i, x := range c {
		s += uint64(x) * coef[i]
	}
	return s
}

// fmix64 is the Murmur3 finalizer: a bijection that spreads the raw sum
// over all 64 bits, so the index can mask off low bits.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

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
// table with linear probing. Each slot stores the full hash next to the
// node id, so a probe touches one slot and misses are rejected without
// touching the arena, and rehashing never recomputes hashes. A slot is
// occupied only if it carries the current generation; reset bumps the
// generation, so emptying the table costs nothing however large a pooled
// graph once made it.
type nodeIndex struct {
	slots []indexSlot
	gen   uint32
	used  int
}

type indexSlot struct {
	h   uint64
	id  int32
	gen uint32 // occupied iff equal to nodeIndex.gen
}

// reset empties the index, keeping its table.
func (ix *nodeIndex) reset() {
	ix.used = 0
	ix.gen++
	if ix.gen == 0 { // wrapped: stale slots could look current
		clear(ix.slots)
		ix.gen = 1
	}
}

// lookup returns the id of the configuration equal to c (with hash h), if
// present.
func (ix *nodeIndex) lookup(st *configStore, c []int64, h uint64) (int32, bool) {
	if len(ix.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &ix.slots[i]
		if s.gen != ix.gen {
			return 0, false
		}
		if s.h == h && eqWords(st.at(s.id), c) {
			return s.id, true
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
	for ix.slots[i].gen == ix.gen {
		i = (i + 1) & mask
	}
	ix.slots[i] = indexSlot{h: h, id: id, gen: ix.gen}
	ix.used++
}

// grow doubles the table (min 64 slots) and reinserts the current
// generation's entries from their cached hashes; the arena is not
// consulted.
func (ix *nodeIndex) grow() {
	newCap := 64
	if len(ix.slots) > 0 {
		newCap = len(ix.slots) * 2
	}
	old := ix.slots
	ix.slots = make([]indexSlot, newCap)
	if ix.gen == 0 { // a zero-value index: generation 0 would mark every fresh slot occupied
		ix.gen = 1
	}
	ix.used = 0
	for _, s := range old {
		if s.gen == ix.gen {
			ix.insert(s.id, s.h)
		}
	}
}
