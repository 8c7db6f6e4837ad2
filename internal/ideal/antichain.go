package ideal

// This file implements the storage layer of the antichain core behind
// UpSet: minimal elements live back to back in one flat []int64 arena
// (dimension-strided views, append-only, so views handed out never
// dangle), an open-addressing index over the raw coordinates (shared
// wordhash hasher) rejects exact duplicates in O(1) without materializing
// string keys, and a per-element signature — folded support bitmask plus
// positive ∞-norm — prunes domination scans before any coordinate is
// touched. The companion naive.go retains the pre-arena implementation
// verbatim for differential tests and benchmarks.

import (
	"slices"
	"sort"

	"repro/internal/multiset"
	"repro/internal/wordhash"
)

// sig is the domination-pruning signature of a minimal element m ∈ ℕ^d:
//
//   - support: bit (i mod 64) is set iff m(i) > 0. m ≤ v forces every
//     positive coordinate of m to be positive in v, so
//     support(m) &^ support(v) ≠ 0 refutes m ≤ v without touching the
//     arena (folding at 64 keeps the test one word for any d).
//   - norm: max over positive coordinates (‖m‖∞ on ℕ^d). m ≤ v forces
//     norm(m) ≤ norm(v), the second one-word refutation.
//   - hash: the element's raw-coordinate hash, cached so Clone and index
//     growth never rehash.
type sig struct {
	support uint64
	norm    int64
	hash    uint64
}

// signatureOf computes the support mask and positive ∞-norm of v.
func signatureOf(v []int64) (support uint64, norm int64) {
	for i, x := range v {
		if x > 0 {
			support |= 1 << (uint(i) & 63)
			if x > norm {
				norm = x
			}
		}
	}
	return support, norm
}

// leWords reports a ≤ b componentwise for equal-length raw slices. The
// scan is unrolled 4-wide: domination checks are the inner loop of every
// Insert and Contains, and the bounds-check-free quad with a single OR'd
// early exit keeps the comparator ahead of the word-at-a-time loop
// (leWordsRef, pinned by BenchmarkLeWords) on the basis dimensions the
// fixpoints actually run at.
func leWords(a, b []int64) bool {
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aq := a[i : i+4 : i+4]
		bq := b[i : i+4 : i+4]
		if aq[0] > bq[0] || aq[1] > bq[1] || aq[2] > bq[2] || aq[3] > bq[3] {
			return false
		}
	}
	for ; i < len(a); i++ {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// leWordsRef is the retained word-at-a-time comparator — the before side of
// BenchmarkLeWords and the oracle of the unrolled scan's equivalence tests.
func leWordsRef(a, b []int64) bool {
	for i, x := range a {
		if x > b[i] {
			return false
		}
	}
	return true
}

// acIndex is the exact-duplicate index: open addressing with linear
// probing over stored element ids, keyed by the raw-coordinate hash. Ids
// of elements later removed from the antichain stay in the table — a stale
// hit is still a correct "do not add" answer, because a removed element is
// dominated by whatever removed it, so the set cannot grow by re-adding
// it.
type acIndex struct {
	slots  []int32 // element id + 1; 0 = empty
	hashes []uint64
	used   int
}

// lookup reports whether an element with coordinates c (hash h) is stored.
func (ix *acIndex) lookup(u *UpSet, c []int64, h uint64) bool {
	if len(ix.slots) == 0 {
		return false
	}
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		id := ix.slots[i]
		if id == 0 {
			return false
		}
		if ix.hashes[i] == h && eqWords(u.storedAt(id-1), c) {
			return true
		}
	}
}

// add records stored element id under hash h. The element must not be in
// the index.
func (ix *acIndex) add(id int32, h uint64) {
	if (ix.used+1)*4 > len(ix.slots)*3 {
		ix.grow()
	}
	ix.insert(id, h)
}

func (ix *acIndex) insert(id int32, h uint64) {
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
func (ix *acIndex) grow() {
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

// eqWords reports a == b componentwise, unrolled 4-wide like leWords (it
// sits on the duplicate-index probe path of every Insert).
func eqWords(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aq := a[i : i+4 : i+4]
		bq := b[i : i+4 : i+4]
		if aq[0] != bq[0] || aq[1] != bq[1] || aq[2] != bq[2] || aq[3] != bq[3] {
			return false
		}
	}
	for ; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// eqWordsRef is the retained word-at-a-time equality scan, kept as the
// oracle and before side of the unrolled comparator's tests and benchmark.
func eqWordsRef(a, b []int64) bool {
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

// hashWords hashes the coordinates of an element with the shared
// raw-coordinate hasher (FNV-1a + avalanche; see wordhash).
func hashWords(w []int64) uint64 { return wordhash.Sum(w) }

// Less is the canonical total order on equal-dimension vectors:
// lexicographic on coordinates. It is the order SortBasis and
// CanonicalUpSet normalize to.
func Less(a, b multiset.Vec) bool {
	for i, x := range a {
		if x != b[i] {
			return x < b[i]
		}
	}
	return false
}

// SortBasis sorts a basis in place into the canonical (lexicographic)
// element order and returns it.
func SortBasis(basis []multiset.Vec) []multiset.Vec {
	sort.Slice(basis, func(i, j int) bool { return Less(basis[i], basis[j]) })
	return basis
}

// CanonicalUpSet rebuilds an UpSet with its antichain in canonical order:
// the same set, with arena ids assigned in SortBasis order. Two UpSets
// denoting the same set have identical MinBasis slices after
// canonicalization, whatever insertion histories produced them — this is
// what lets a computed fixpoint and one restored from a durable artifact
// expose identical bases. Only the live positions are sorted, by their
// arena coordinates; the result then copies each element's words and its
// cached signature and hash, so nothing is cloned or rehashed. The index
// is filled in the same order, so it matches one built by Inserting the
// sorted basis.
func CanonicalUpSet(u *UpSet) *UpSet {
	n, d := len(u.ids), u.d
	order := make([]int32, n) // positions in u.ids, sorted below
	for k := range order {
		order[k] = int32(k)
	}
	// Antichain elements are distinct, so the order is total.
	slices.SortFunc(order, func(a, b int32) int {
		return slices.Compare(u.storedAt(u.ids[a]), u.storedAt(u.ids[b]))
	})
	out := &UpSet{
		d:      d,
		arena:  make([]int64, n*d),
		stored: n,
		ids:    make([]int32, n),
		sigs:   make([]sig, n),
		live:   make([]bool, n),
	}
	for k, pos := range order {
		copy(out.arena[k*d:(k+1)*d], u.storedAt(u.ids[pos]))
		out.ids[k] = int32(k)
		out.sigs[k] = u.sigs[pos]
		out.live[k] = true
		out.index.add(int32(k), u.sigs[pos].hash)
	}
	return out
}
