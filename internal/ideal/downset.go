package ideal

import (
	"errors"
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
func (id Ideal) Subsumes(other Ideal) bool { return capsLE(other.caps, id.caps) }

// capsLE reports whether the ideal with caps a lies inside the one with
// caps b: a[i] ≤ b[i] on every coordinate, ω being above every cap. Read
// as unsigned, Omega (−1) is the largest word, so this is one unsigned
// comparison per coordinate, unrolled 4-wide like leWords.
func capsLE(a, b []int64) bool {
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aq := a[i : i+4 : i+4]
		bq := b[i : i+4 : i+4]
		if uint64(aq[0]) > uint64(bq[0]) || uint64(aq[1]) > uint64(bq[1]) ||
			uint64(aq[2]) > uint64(bq[2]) || uint64(aq[3]) > uint64(bq[3]) {
			return false
		}
	}
	for ; i < len(a); i++ {
		if uint64(a[i]) > uint64(b[i]) {
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
// Subsumption scans — in Add, and in ComplementUp's arena passes — are
// pruned by a per-ideal folded ω-mask: id ⊆ have needs every ω coordinate
// of id to be ω in have, so ωmask(id) &^ ωmask(have) ≠ 0 refutes
// subsumption in one word before any cap is compared. The pruning changes
// no decision: the kept ideals and their order are exactly those of the
// unpruned scans. Union copies the receiver's decomposition as it stands
// and Adds only the other operand's ideals.
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

// Union returns the union of ds and other. ds's decomposition is already
// irredundant, so it is copied as it stands (Ideals are immutable values,
// shared with ds); only other's ideals go through the subsumption scans.
func (ds *DownSet) Union(other *DownSet) *DownSet {
	n := len(ds.ideals) + len(other.ideals)
	out := &DownSet{d: ds.d, ideals: make([]Ideal, 0, n), omegas: make([]uint64, 0, n)}
	out.ideals = append(out.ideals, ds.ideals...)
	out.omegas = append(out.omegas, ds.omegas...)
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
//
// The passes run on two flat cap arenas of stride d: the decomposition,
// where ideal k is caps[k*d:(k+1)*d] next to its folded ω-mask, and the
// caps of the ideals the current element cuts. A pass moves the ideals
// that avoid ↑m down in place over the ones that do not, which it sets
// aside, then appends the kept clones behind them; nothing before the
// first cut ideal moves. Each clone is built in one reused buffer and
// appended only once the subsumed-by scan has kept it, so a pass moves
// plain words and allocates nothing once the arenas have grown. The
// result's ideals are built once, at the end, as views into one slab.
// A non-nil stop is polled once per minimal element of u: ComplementUp
// returns ErrInterrupted soon after it closes.
func ComplementUp(u *UpSet, stop <-chan struct{}) (*DownSet, error) {
	d := u.Dim()
	full := FullIdeal(d)
	a := capArena{d: d, caps: full.caps, omegas: []uint64{omegaMask(full)}}
	var cut []int64 // caps of the ideals the current element cuts
	support := make([]int, 0, d)
	buf := make([]int64, d)
	for _, mid := range u.ids {
		select {
		case <-stop: // a nil stop never fires
			return nil, ErrInterrupted
		default:
		}
		m := u.storedAt(mid)
		support = support[:0]
		for i, x := range m {
			if x > 0 {
				support = append(support, i)
			}
		}
		cut = cut[:0]
		w := 0
		for k, om := range a.omegas {
			c := a.at(k)
			avoids := false
			for _, i := range support {
				if c[i] != Omega && c[i] <= m[i]-1 {
					avoids = true
					break
				}
			}
			if !avoids {
				cut = append(cut, c...)
				continue
			}
			if w != k {
				copy(a.at(w), c)
				a.omegas[w] = om
			}
			w++
		}
		a.caps, a.omegas = a.caps[:w*d], a.omegas[:w]
		// A minimal element m = 0 has empty support: ↑m = ℕ^d, complement
		// empty, nothing survives (no clones are generated).
		for o := 0; o < len(cut); o += d {
			c := cut[o : o+d]
			for _, i := range support {
				// Here c[i] is ω or > m[i]−1, so the clone strictly
				// shrinks coordinate i.
				copy(buf, c)
				buf[i] = m[i] - 1
				a.addClone(buf, w)
			}
		}
	}
	return a.downSet(), nil
}

// ErrInterrupted is returned when ComplementUp's stop channel closes.
var ErrInterrupted = errors.New("ideal: interrupted")

// capArena is ComplementUp's decomposition: len(omegas) ideals, their
// caps back to back with stride d, each with its folded ω-mask.
type capArena struct {
	d      int
	caps   []int64
	omegas []uint64
}

// at returns the caps of ideal k as a view into the arena.
func (a *capArena) at(k int) []int64 {
	return a.caps[k*a.d : (k+1)*a.d : (k+1)*a.d]
}

// addClone inserts a shrunk clone during a ComplementUp pass. caps is the
// caller's scratch buffer: its words are appended only when no ideal of
// the arena subsumes it. Ideals below index protected are untouched
// originals that no clone can subsume, so the removal scan starts at
// protected, and survivors move down in place from the first removed
// ideal on; the subsumed-by scan still covers everything.
func (a *capArena) addClone(caps []int64, protected int) {
	om := omegaMask(Ideal{caps: caps})
	for k, have := range a.omegas {
		if om&^have == 0 && capsLE(caps, a.at(k)) {
			return
		}
	}
	w := protected
	for k := protected; k < len(a.omegas); k++ {
		have := a.omegas[k]
		if have&^om == 0 && capsLE(a.at(k), caps) {
			continue
		}
		if w != k {
			copy(a.at(w), a.at(k))
			a.omegas[w] = have
		}
		w++
	}
	a.caps = append(a.caps[:w*a.d], caps...)
	a.omegas = append(a.omegas[:w], om)
}

// downSet builds the arena's decomposition as a DownSet whose ideals are
// views into one slab, in arena order.
func (a *capArena) downSet() *DownSet {
	n := len(a.omegas)
	slab := make([]int64, n*a.d)
	copy(slab, a.caps)
	ds := &DownSet{d: a.d, ideals: make([]Ideal, n), omegas: make([]uint64, n)}
	copy(ds.omegas, a.omegas)
	for k := range ds.ideals {
		ds.ideals[k] = Ideal{caps: slab[k*a.d : (k+1)*a.d : (k+1)*a.d]}
	}
	return ds
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
