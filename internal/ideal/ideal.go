// Package ideal implements upward-closed and downward-closed subsets of ℕ^d
// with finite symbolic representations, the order-theoretic backbone of
// Section 3 of the paper:
//
//   - an upward-closed set is represented by its finite antichain of minimal
//     elements (well-defined by Dickson's lemma);
//   - a downward-closed set is represented as a finite union of ideals; an
//     Ideal fixes for each coordinate either a finite cap c (v_i ≤ c) or ω
//     (unbounded). An ideal with caps B on the coordinates outside S and ω
//     exactly on S is the downward closure of the paper's basis element
//     (B, S); the paper's exact-form base {B' + ℕ^S : B' ≤ B off S} is
//     recovered by enumerating the finite coordinates, which is how the
//     (k+2)^n count in Lemma 3.2 arises.
//
// Complementation maps between the two representations exactly, giving the
// duality used to compute stable sets: SC_b is the complement of the
// upward-closed set of configurations that can cover a ¬b state.
//
// UpSet is the antichain workhorse of the backward-coverability fixpoint in
// internal/stable, so it is built for throughput: minimal elements live in
// one flat arena (antichain.go), exact duplicates are rejected through a
// raw-coordinate hash index, domination scans are pruned by per-element
// signatures, and an Insert that evicts compacts the antichain in place.
// CanonicalUpSet sorts the live ids and copies words, signatures and
// hashes, and ComplementUp runs its passes on flat cap arenas, building
// the resulting ideals once as views into one slab. The pre-arena
// implementation is retained verbatim as NaiveUpSet (naive.go) for
// differential tests and benchmarks.
package ideal

import (
	"fmt"
	"strings"

	"repro/internal/multiset"
)

// Omega is the cap value denoting an unbounded (ω) coordinate of an Ideal.
const Omega = int64(-1)

// UpSet is an upward-closed subset of ℕ^d represented by its minimal
// elements, stored in a flat arena (see antichain.go).
type UpSet struct {
	d      int
	arena  []int64 // append-only element storage: id i at [i*d : (i+1)*d]
	stored int     // elements ever stored (live + removed)
	ids    []int32 // current antichain, in insertion order
	sigs   []sig   // parallel to ids
	live   []bool  // per stored id: still a minimal element?
	index  acIndex
}

// NewUpSet returns the upward closure of the given generators (all of
// dimension d; the empty generator list gives the empty set).
func NewUpSet(d int, gens ...multiset.Vec) *UpSet {
	u := &UpSet{d: d}
	u.Add(gens...)
	return u
}

// RestoreUpSet rebuilds an UpSet verbatim from a stored minimal antichain
// — one previously obtained from MinBasis() — skipping the domination
// scans Insert pays: elements of an antichain are pairwise incomparable by
// construction, so the scans cannot reject or evict anything. Arena order
// is the input order, so a basis stored in canonical order restores to an
// UpSet indistinguishable from the CanonicalUpSet of the set it was read
// from. The caller vouches the input is an antichain; only dimensions are
// checked (a dominated or duplicate element would silently corrupt the
// set).
func RestoreUpSet(d int, basis []multiset.Vec) (*UpSet, error) {
	u := &UpSet{
		d:      d,
		arena:  make([]int64, 0, len(basis)*d),
		stored: len(basis),
		ids:    make([]int32, len(basis)),
		sigs:   make([]sig, len(basis)),
		live:   make([]bool, len(basis)),
	}
	u.index.reserve(len(basis))
	for k, m := range basis {
		if m.Dim() != d {
			return nil, fmt.Errorf("ideal: restore element %d has dimension %d, want %d", k, m.Dim(), d)
		}
		u.arena = append(u.arena, m...)
		u.ids[k] = int32(k)
		u.live[k] = true
		h := hashWords(m)
		mask, norm := signatureOf(m)
		u.sigs[k] = sig{support: mask, norm: norm, hash: h}
		u.index.add(int32(k), h)
	}
	return u, nil
}

// Dim returns the dimension d.
func (u *UpSet) Dim() int { return u.d }

// IsEmpty reports whether the set is empty.
func (u *UpSet) IsEmpty() bool { return len(u.ids) == 0 }

// storedAt returns stored element id as a raw view into the arena. Valid
// for removed elements too: the arena is append-only.
func (u *UpSet) storedAt(id int32) []int64 {
	o := int(id) * u.d
	return u.arena[o : o+u.d : o+u.d]
}

// At returns a read-only view of stored element id (as returned by
// Insert). The view stays valid and unchanged for the lifetime of the set,
// even after the element is removed from the antichain; callers must not
// modify it.
func (u *UpSet) At(id int) multiset.Vec { return multiset.Vec(u.storedAt(int32(id))) }

// Alive reports whether stored element id is still a minimal element of
// the set.
func (u *UpSet) Alive(id int) bool { return u.live[id] }

// Stored returns the number of elements ever stored in the arena, alive or
// not: valid ids are exactly [0, Stored()). Iterating Stored() ids and
// filtering by Alive enumerates the current antichain in arena order.
func (u *UpSet) Stored() int { return u.stored }

// Contains reports whether v belongs to the set.
func (u *UpSet) Contains(v multiset.Vec) bool {
	if len(v) != u.d {
		return false
	}
	vmask, vnorm := signatureOf(v)
	return u.dominatedSig(v, vmask, vnorm)
}

// dominatedSig reports whether some minimal element is ≤ v, pruning by
// signature before touching coordinates.
func (u *UpSet) dominatedSig(v []int64, vmask uint64, vnorm int64) bool {
	for k, id := range u.ids {
		s := &u.sigs[k]
		if s.support&^vmask != 0 || s.norm > vnorm {
			continue
		}
		if leWords(u.storedAt(id), v) {
			return true
		}
	}
	return false
}

// Insert unions the upward closure of one generator into the set. It
// returns the generator's storage id (usable with At and Alive) and
// whether the set strictly grew; id is -1 when it did not.
func (u *UpSet) Insert(g multiset.Vec) (id int, grew bool) {
	if g.Dim() != u.d {
		panic(fmt.Sprintf("ideal: generator dimension %d, want %d", g.Dim(), u.d))
	}
	h := hashWords(g)
	// Exact duplicate: either still minimal, or removed by a dominator —
	// in both cases the set cannot grow.
	if u.index.lookup(u, g, h) {
		return -1, false
	}
	gmask, gnorm := signatureOf(g)
	if u.dominatedSig(g, gmask, gnorm) {
		return -1, false
	}
	// Drop elements dominated by g. g ≤ m needs support(g) ⊆ support(m)
	// and norm(g) ≤ norm(m); both are one-word rejections. Survivors move
	// down in place, and only those after the first evicted element move.
	w := 0
	for k, mid := range u.ids {
		s := &u.sigs[k]
		if gmask&^s.support == 0 && gnorm <= s.norm && leWords(g, u.storedAt(mid)) {
			u.live[mid] = false
			continue
		}
		if w != k {
			u.ids[w], u.sigs[w] = mid, *s
		}
		w++
	}
	u.ids, u.sigs = u.ids[:w], u.sigs[:w]

	nid := int32(u.stored)
	u.arena = append(u.arena, g...)
	u.stored++
	u.live = append(u.live, true)
	u.index.add(nid, h)
	u.ids = append(u.ids, nid)
	u.sigs = append(u.sigs, sig{support: gmask, norm: gnorm, hash: h})
	return int(nid), true
}

// Add unions the upward closures of the generators into the set and reports
// whether the set strictly grew.
func (u *UpSet) Add(gens ...multiset.Vec) bool {
	grew := false
	for _, g := range gens {
		if _, ok := u.Insert(g); ok {
			grew = true
		}
	}
	return grew
}

// MinBasis returns a copy of the antichain of minimal elements, in
// insertion order.
func (u *UpSet) MinBasis() []multiset.Vec {
	out := make([]multiset.Vec, len(u.ids))
	for k, id := range u.ids {
		out[k] = multiset.Vec(u.storedAt(id)).Clone()
	}
	return out
}

// Size returns the number of minimal elements.
func (u *UpSet) Size() int { return len(u.ids) }

// Norm returns the maximal ‖m‖∞ over minimal elements (0 for the empty
// set).
func (u *UpSet) Norm() int64 {
	var n int64
	for k := range u.sigs {
		if u.sigs[k].norm > n {
			n = u.sigs[k].norm
		}
	}
	return n
}

// Clone returns a deep copy. The antichain is already minimal, so the copy
// is a flat arena compaction — no re-minimization through Add (the naive
// core's O(n²) Clone) and no rehashing (signatures cache the hashes).
func (u *UpSet) Clone() *UpSet {
	n := len(u.ids)
	out := &UpSet{
		d:      u.d,
		arena:  make([]int64, 0, n*u.d),
		stored: n,
		ids:    make([]int32, n),
		sigs:   make([]sig, n),
		live:   make([]bool, n),
	}
	copy(out.sigs, u.sigs)
	out.index.reserve(n)
	for k, id := range u.ids {
		out.arena = append(out.arena, u.storedAt(id)...)
		out.ids[k] = int32(k)
		out.live[k] = true
		out.index.add(int32(k), u.sigs[k].hash)
	}
	return out
}

// Union returns the union of u and v. u's antichain is copied directly
// (Clone); only v's elements go through domination checks.
func (u *UpSet) Union(v *UpSet) *UpSet {
	out := u.Clone()
	for _, id := range v.ids {
		out.Insert(multiset.Vec(v.storedAt(id)))
	}
	return out
}

// Intersect returns the intersection of u and v: its minimal elements are
// the minimized pairwise componentwise maxima of the two bases.
func (u *UpSet) Intersect(v *UpSet) *UpSet {
	if u.d != v.d {
		panic(fmt.Sprintf("ideal: dimension mismatch %d vs %d", u.d, v.d))
	}
	var gens []multiset.Vec
	for _, a := range u.ids {
		av := multiset.Vec(u.storedAt(a))
		for _, b := range v.ids {
			gens = append(gens, av.Max(multiset.Vec(v.storedAt(b))))
		}
	}
	return NewUpSet(u.d, multiset.Minimal(gens)...)
}

// Equal reports whether u and v denote the same set (antichain equality).
func (u *UpSet) Equal(v *UpSet) bool {
	if u.d != v.d || len(u.ids) != len(v.ids) {
		return false
	}
	for _, id := range u.ids {
		if !v.Contains(multiset.Vec(u.storedAt(id))) {
			return false
		}
	}
	for _, id := range v.ids {
		if !u.Contains(multiset.Vec(v.storedAt(id))) {
			return false
		}
	}
	return true
}

// String renders the minimal basis.
func (u *UpSet) String() string {
	parts := make([]string, len(u.ids))
	for k, id := range u.ids {
		parts[k] = multiset.Vec(u.storedAt(id)).String()
	}
	return "↑{" + strings.Join(parts, ", ") + "}"
}
