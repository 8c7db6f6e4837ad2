package ideal

import (
	"fmt"
	"strings"

	"repro/internal/multiset"
)

// Ideal is a downward-closed "box" in ℕ^d: coordinate i is bounded by
// caps[i], or unbounded when caps[i] == Omega. The paper's basis element
// (B, S) corresponds to the ideal with caps[i] = B(i) off S and ω on S.
type Ideal struct {
	caps []int64
}

// NewIdeal returns an ideal with the given caps (Omega for ω coordinates).
func NewIdeal(caps []int64) Ideal {
	out := make([]int64, len(caps))
	copy(out, caps)
	return Ideal{caps: out}
}

// FullIdeal returns ℕ^d (all coordinates ω).
func FullIdeal(d int) Ideal {
	caps := make([]int64, d)
	for i := range caps {
		caps[i] = Omega
	}
	return Ideal{caps: caps}
}

// Dim returns the dimension.
func (id Ideal) Dim() int { return len(id.caps) }

// Cap returns the cap of coordinate i (Omega if unbounded).
func (id Ideal) Cap(i int) int64 { return id.caps[i] }

// Contains reports whether v belongs to the ideal.
func (id Ideal) Contains(v multiset.Vec) bool {
	if v.Dim() != len(id.caps) {
		return false
	}
	for i, c := range id.caps {
		if c != Omega && v[i] > c {
			return false
		}
	}
	return true
}

// Subsumes reports whether other ⊆ id.
func (id Ideal) Subsumes(other Ideal) bool {
	for i, c := range id.caps {
		if c == Omega {
			continue
		}
		if other.caps[i] == Omega || other.caps[i] > c {
			return false
		}
	}
	return true
}

// Intersect returns the coordinatewise minimum of caps.
func (id Ideal) Intersect(other Ideal) Ideal {
	out := make([]int64, len(id.caps))
	for i := range out {
		a, b := id.caps[i], other.caps[i]
		switch {
		case a == Omega:
			out[i] = b
		case b == Omega:
			out[i] = a
		case a < b:
			out[i] = a
		default:
			out[i] = b
		}
	}
	return Ideal{caps: out}
}

// B returns the paper's B component: the vector of finite caps (0 on ω
// coordinates).
func (id Ideal) B() multiset.Vec {
	b := multiset.New(len(id.caps))
	for i, c := range id.caps {
		if c != Omega {
			b[i] = c
		}
	}
	return b
}

// S returns the paper's S component: the set of ω coordinates, in the map
// representation used by the pump certificate JSON format.
func (id Ideal) S() map[int]bool {
	s := make(map[int]bool)
	for i, c := range id.caps {
		if c == Omega {
			s[i] = true
		}
	}
	return s
}

// SBits returns the paper's S component as a packed bitset — the
// representation stable.BasisElement keeps on its membership hot path.
func (id Ideal) SBits() Bits {
	s := NewBits(len(id.caps))
	for i, c := range id.caps {
		if c == Omega {
			s.Set(i)
		}
	}
	return s
}

// Norm returns ‖(B,S)‖∞ = ‖B‖∞, the norm of the basis element (Section 3).
func (id Ideal) Norm() int64 {
	var n int64
	for _, c := range id.caps {
		if c != Omega && c > n {
			n = c
		}
	}
	return n
}

// String renders the ideal, e.g. "[2, ω, 0]".
func (id Ideal) String() string {
	parts := make([]string, len(id.caps))
	for i, c := range id.caps {
		if c == Omega {
			parts[i] = "ω"
		} else {
			parts[i] = fmt.Sprintf("%d", c)
		}
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// DownSet is a downward-closed subset of ℕ^d represented as a finite union
// of ideals, kept irredundant (no ideal subsumes another).
//
// Subsumption scans during Add are pruned by a per-ideal folded ω-mask:
// id ⊆ have needs every ω coordinate of id to be ω in have, so
// ωmask(id) &^ ωmask(have) ≠ 0 refutes subsumption in one word before any
// cap is compared. The pruning changes no decision — the kept ideals and
// their order are exactly those of the unpruned seed Add — so the
// decompositions both complementation paths (ComplementUp and the retained
// NaiveComplementUp) produce stay bit-identical.
type DownSet struct {
	d      int
	ideals []Ideal
	omegas []uint64 // parallel to ideals: folded ω-coordinate masks
}

// omegaMask folds the ω coordinates of an ideal into one word (bit i mod
// 64 for each ω coordinate i).
func omegaMask(id Ideal) uint64 {
	var m uint64
	for i, c := range id.caps {
		if c == Omega {
			m |= 1 << (uint(i) & 63)
		}
	}
	return m
}

// NewDownSet returns the union of the given ideals.
func NewDownSet(d int, ideals ...Ideal) *DownSet {
	ds := &DownSet{d: d}
	ds.Add(ideals...)
	return ds
}

// RestoreDownSet rebuilds a DownSet verbatim from a previously computed
// irredundant decomposition — one obtained from Ideals() — skipping the
// subsumption scans Add pays. The irredundant decomposition of a
// downward-closed set is canonical (box ideals are irreducible, so the
// decomposition is exactly the set of maximal ideals), but the slice order
// is construction history; restoring verbatim preserves it, so every
// accessor iterates identically to the original. The caller vouches the
// input came from a DownSet of dimension d: feeding a redundant or
// foreign-dimension slice corrupts the set, which is why the dimension at
// least is checked. Ideals are immutable values, so they are shared with
// the input rather than copied.
func RestoreDownSet(d int, ideals []Ideal) (*DownSet, error) {
	ds := &DownSet{
		d:      d,
		ideals: make([]Ideal, len(ideals)),
		omegas: make([]uint64, len(ideals)),
	}
	for k, id := range ideals {
		if id.Dim() != d {
			return nil, fmt.Errorf("ideal: restore: ideal %d has dimension %d, want %d", k, id.Dim(), d)
		}
		ds.ideals[k] = id
		ds.omegas[k] = omegaMask(id)
	}
	return ds, nil
}

// Dim returns the dimension.
func (ds *DownSet) Dim() int { return ds.d }

// IsEmpty reports whether the set is empty.
func (ds *DownSet) IsEmpty() bool { return len(ds.ideals) == 0 }

// Contains reports whether v belongs to the set.
func (ds *DownSet) Contains(v multiset.Vec) bool {
	for _, id := range ds.ideals {
		if id.Contains(v) {
			return true
		}
	}
	return false
}

// Add unions ideals into the set, maintaining irredundancy.
func (ds *DownSet) Add(ideals ...Ideal) {
	for _, id := range ideals {
		if id.Dim() != ds.d {
			panic(fmt.Sprintf("ideal: ideal dimension %d, want %d", id.Dim(), ds.d))
		}
		om := omegaMask(id)
		sub := false
		for k, have := range ds.ideals {
			// have ⊇ id needs ω(id) ⊆ ω(have).
			if om&^ds.omegas[k] == 0 && have.Subsumes(id) {
				sub = true
				break
			}
		}
		if sub {
			continue
		}
		kept := ds.ideals[:0]
		keptOmegas := ds.omegas[:0]
		for k, have := range ds.ideals {
			// id ⊇ have needs ω(have) ⊆ ω(id).
			if ds.omegas[k]&^om == 0 && id.Subsumes(have) {
				continue
			}
			kept = append(kept, have)
			keptOmegas = append(keptOmegas, ds.omegas[k])
		}
		ds.ideals = append(kept, id)
		ds.omegas = append(keptOmegas, om)
	}
}

// Ideals returns a copy of the ideal decomposition.
func (ds *DownSet) Ideals() []Ideal {
	out := make([]Ideal, len(ds.ideals))
	copy(out, ds.ideals)
	return out
}

// Size returns the number of ideals in the decomposition.
func (ds *DownSet) Size() int { return len(ds.ideals) }

// Norm returns the maximal basis-element norm over the decomposition,
// the quantity bounded by the small basis constant β in Lemma 3.2.
func (ds *DownSet) Norm() int64 {
	var n int64
	for _, id := range ds.ideals {
		if k := id.Norm(); k > n {
			n = k
		}
	}
	return n
}

// Union returns the union of ds and other.
func (ds *DownSet) Union(other *DownSet) *DownSet {
	out := NewDownSet(ds.d, ds.ideals...)
	out.Add(other.ideals...)
	return out
}

// String renders the decomposition.
func (ds *DownSet) String() string {
	parts := make([]string, len(ds.ideals))
	for i, id := range ds.ideals {
		parts[i] = id.String()
	}
	return "↓(" + strings.Join(parts, " ∪ ") + ")"
}

// ComplementUp computes the downward-closed complement of an upward-closed
// set: ℕ^d ∖ ↑{m₁,...,m_k} = ∩_j ∪_{i : m_j(i) > 0} {v : v_i ≤ m_j(i) − 1},
// expanded into an irredundant union of ideals.
//
// An irredundant union of ideals is canonical: box ideals are irreducible
// (an ideal contained in a finite union is contained in one member — look
// at its corner), so the irredundant decomposition of a downward-closed
// set is exactly its set of maximal ideals, whatever order it was built
// in. That licenses the pass structure here, which differs from the seed's
// (retained as NaiveComplementUp) but produces the same decomposition:
// per minimal element m, ideals that already avoid ↑m (some cap below m on
// ⟦m⟧) pass through untouched — they were pairwise irredundant and a
// shrunk clone can never subsume an untouched ideal (it would have had to
// subsume its parent) — and only the clones of the remaining ideals pay
// subsumption scans.
func ComplementUp(u *UpSet) *DownSet {
	d := u.Dim()
	ds := NewDownSet(d, FullIdeal(d))
	support := make([]int, 0, d)
	var changed []Ideal
	for _, mid := range u.ids {
		m := u.storedAt(mid)
		support = support[:0]
		for i, x := range m {
			if x > 0 {
				support = append(support, i)
			}
		}
		next := &DownSet{d: d}
		changed = changed[:0]
		for k, id := range ds.ideals {
			avoids := false
			for _, i := range support {
				if id.caps[i] != Omega && id.caps[i] <= m[i]-1 {
					avoids = true
					break
				}
			}
			if avoids {
				next.ideals = append(next.ideals, id)
				next.omegas = append(next.omegas, ds.omegas[k])
			} else {
				changed = append(changed, id)
			}
		}
		// A minimal element m = 0 has empty support: ↑m = ℕ^d, complement
		// empty, nothing survives (no clones are generated).
		protected := len(next.ideals)
		for _, id := range changed {
			for _, i := range support {
				// Here caps[i] is ω or > m[i]−1, so the clone strictly
				// shrinks coordinate i.
				clone := NewIdeal(id.caps)
				clone.caps[i] = m[i] - 1
				next.addClone(clone, protected)
			}
		}
		ds = next
	}
	return ds
}

// addClone inserts a shrunk clone during a ComplementUp pass: ideals below
// index protected are untouched originals that no clone can subsume, so
// the removal scan starts at protected; the subsumed-by scan still covers
// everything.
func (ds *DownSet) addClone(id Ideal, protected int) {
	om := omegaMask(id)
	for k, have := range ds.ideals {
		if om&^ds.omegas[k] == 0 && have.Subsumes(id) {
			return
		}
	}
	kept := ds.ideals[:protected]
	keptOmegas := ds.omegas[:protected]
	for k := protected; k < len(ds.ideals); k++ {
		if ds.omegas[k]&^om == 0 && id.Subsumes(ds.ideals[k]) {
			continue
		}
		kept = append(kept, ds.ideals[k])
		keptOmegas = append(keptOmegas, ds.omegas[k])
	}
	ds.ideals = append(kept, id)
	ds.omegas = append(keptOmegas, om)
}

// ComplementDown computes the upward-closed complement of a downward-closed
// set: the complement of one ideal with finite caps c_i on coordinates i ∈ F
// is ∪_{i∈F} ↑((c_i+1)·e_i); the complement of the union is the intersection
// of these upward-closed sets.
func ComplementDown(ds *DownSet) *UpSet {
	d := ds.d
	// Complement of the empty set is everything: ↑{0}.
	out := NewUpSet(d, multiset.New(d))
	for _, id := range ds.ideals {
		var gens []multiset.Vec
		for i, c := range id.caps {
			if c == Omega {
				continue
			}
			g := multiset.New(d)
			g[i] = c + 1
			gens = append(gens, g)
		}
		// An all-ω ideal is ℕ^d: its complement is empty.
		out = out.Intersect(NewUpSet(d, gens...))
	}
	return out
}
