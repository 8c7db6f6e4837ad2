package ideal

import (
	"slices"
	"testing"

	"repro/internal/multiset"
)

// FuzzAntichain drives the arena-backed antichain against a brute-force
// map-based oracle (the style of internal/reach's FuzzNodeIndex): the
// oracle keeps every generator ever added in a map keyed by the
// serialization format, answers Contains by scanning for a dominator, and
// derives the minimal basis by pairwise comparison. Every Add growth
// report, every Contains probe, and the final minimal basis must agree.
func FuzzAntichain(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, uint8(4))
	f.Add([]byte{5, 0, 0, 5, 1, 1, 2, 2, 3, 3}, uint8(2))
	f.Add([]byte{7, 7, 7, 0, 0, 0}, uint8(3))
	f.Add([]byte{1}, uint8(1))
	f.Add([]byte{}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, dimRaw uint8) {
		dim := int(dimRaw%5) + 1
		u := NewUpSet(dim)
		oracle := make(map[string]multiset.Vec)
		oracleContains := func(v multiset.Vec) bool {
			for _, g := range oracle {
				if g.Le(v) {
					return true
				}
			}
			return false
		}
		for off := 0; off+dim <= len(data); off += dim {
			v := make(multiset.Vec, dim)
			for i := 0; i < dim; i++ {
				v[i] = int64(data[off+i] % 8)
			}
			if got, want := u.Contains(v), oracleContains(v); got != want {
				t.Fatalf("Contains(%v) = %t, oracle %t", v, got, want)
			}
			grew := u.Add(v)
			if want := !oracleContains(v); grew != want {
				t.Fatalf("Add(%v) grew = %t, oracle %t", v, grew, want)
			}
			oracle[v.Key()] = v
		}
		// Oracle minimal basis: generators not strictly dominated by a
		// distinct generator (equal generators share one map key).
		var minimal []multiset.Vec
		for _, g := range oracle {
			dominated := false
			for _, h := range oracle {
				if !h.Equal(g) && h.Le(g) {
					dominated = true
					break
				}
			}
			if !dominated {
				minimal = append(minimal, g)
			}
		}
		if u.Size() != len(minimal) {
			t.Fatalf("Size = %d, oracle %d", u.Size(), len(minimal))
		}
		if !equalKeyLists(sortedKeys(u.MinBasis()), sortedKeys(minimal)) {
			t.Fatalf("minimal basis %v, oracle %v", u.MinBasis(), minimal)
		}
		// Every oracle-minimal element must be contained; bumping any
		// single coordinate must stay contained (upward closure).
		for _, g := range minimal {
			if !u.Contains(g) {
				t.Fatalf("minimal element %v not contained", g)
			}
			w := g.Clone()
			for i := range w {
				w[i]++
				if !u.Contains(w) {
					t.Fatalf("upward closure violated at %v", w)
				}
				w[i]--
			}
		}
	})
}

// capKeys renders a decomposition's ideals in their own order.
func capKeys(ds *DownSet) []string {
	keys := make([]string, 0, ds.Size())
	for _, id := range ds.Ideals() {
		keys = append(keys, multiset.Vec(id.caps).Key())
	}
	return keys
}

// complementUpCloning is ComplementUp as it was before clones were built in
// a reused buffer: every clone is allocated before its subsumed-by scan. It
// is the raw-order oracle of the buffered pass.
func complementUpCloning(u *UpSet) *DownSet {
	d := u.Dim()
	ds := NewDownSet(d, FullIdeal(d))
	for _, mid := range u.ids {
		m := u.storedAt(mid)
		next := &DownSet{d: d}
		var changed []Ideal
		for k, id := range ds.ideals {
			avoids := false
			for i, x := range m {
				if x > 0 && id.caps[i] != Omega && id.caps[i] <= x-1 {
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
		protected := len(next.ideals)
		for _, id := range changed {
			for i, x := range m {
				if x <= 0 {
					continue
				}
				clone := NewIdeal(id.caps)
				clone.caps[i] = x - 1
				om := omegaMask(clone)
				sub := false
				for k, have := range next.ideals {
					if om&^next.omegas[k] == 0 && have.Subsumes(clone) {
						sub = true
						break
					}
				}
				if sub {
					continue
				}
				kept, keptOmegas := next.ideals[:protected], next.omegas[:protected]
				for k := protected; k < len(next.ideals); k++ {
					if next.omegas[k]&^om == 0 && clone.Subsumes(next.ideals[k]) {
						continue
					}
					kept = append(kept, next.ideals[k])
					keptOmegas = append(keptOmegas, next.omegas[k])
				}
				next.ideals = append(kept, clone)
				next.omegas = append(keptOmegas, om)
			}
		}
		ds = next
	}
	return ds
}

// FuzzComplementUp checks the complementation and canonicalization of
// random small antichains. ComplementUp must produce the same ideals, in
// the same order, as the allocate-every-clone pass, the same set of ideals
// as the retained seed NaiveComplementUp, and an irredundant
// decomposition. CanonicalUpSet must equal the set built by Inserting the
// sorted basis one element at a time: same elements in the same arena
// order, same signatures, and a duplicate index that holds exactly the
// elements (its table is presized, so its slot layout may differ).
func FuzzComplementUp(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 2, 2}, uint8(2))
	f.Add([]byte{3, 1, 0, 0, 2, 1, 1, 1, 2}, uint8(3))
	f.Add([]byte{0, 0, 0}, uint8(3))
	f.Add([]byte{4, 0, 1, 3, 2, 2, 0, 4, 1, 1, 1, 1}, uint8(4))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, dimRaw uint8) {
		dim := int(dimRaw%4) + 1
		if len(data) > 12*dim {
			data = data[:12*dim]
		}
		u := NewUpSet(dim)
		naive := NewNaiveUpSet(dim)
		for off := 0; off+dim <= len(data); off += dim {
			v := make(multiset.Vec, dim)
			for i := range v {
				v[i] = int64(data[off+i] % 5)
			}
			u.Add(v)
			naive.Add(v)
		}

		got, _ := ComplementUp(u, nil)
		if want := complementUpCloning(u); !slices.Equal(capKeys(got), capKeys(want)) {
			t.Fatalf("ComplementUp(%s) = %s, cloning pass %s", u, got, want)
		}
		gotKeys, wantKeys := capKeys(got), capKeys(NaiveComplementUp(naive))
		slices.Sort(gotKeys)
		slices.Sort(wantKeys)
		if !slices.Equal(gotKeys, wantKeys) {
			t.Fatalf("ComplementUp(%s) = %v, naive %v", u, gotKeys, wantKeys)
		}
		ids := got.Ideals()
		for i := range ids {
			for j := range ids {
				if i != j && ids[i].Subsumes(ids[j]) {
					t.Fatalf("ComplementUp(%s) is redundant: %s ⊆ %s", u, ids[j], ids[i])
				}
			}
		}

		canon := CanonicalUpSet(u)
		ref := &UpSet{d: dim}
		for _, m := range SortBasis(u.MinBasis()) {
			ref.Insert(m)
		}
		if canon.Stored() != ref.Stored() || !slices.Equal(canon.arena, ref.arena) ||
			!slices.Equal(canon.ids, ref.ids) || !slices.Equal(canon.sigs, ref.sigs) ||
			!slices.Equal(canon.live, ref.live) {
			t.Fatalf("CanonicalUpSet of %s is %s, Insert-built %s (or differs in signatures)", u, canon, ref)
		}
		checkIndexMembership(t, canon)
		checkIndexMembership(t, u.Clone())
		restored, err := RestoreUpSet(dim, slices.Concat(canon.MinBasis()...))
		if err != nil {
			t.Fatal(err)
		}
		checkIndexMembership(t, restored)
	})
}

// TestPresizedIndexMembership: the three routines that size the duplicate
// index up front (CanonicalUpSet, Clone, RestoreUpSet) index every element
// of antichains past the 64-slot first table, where a grown table would
// have doubled several times; the Union of a clone then grows it further.
func TestPresizedIndexMembership(t *testing.T) {
	for _, n := range []int{1, 48, 49, 97, 700} {
		u := NewUpSet(2)
		for i := 0; i < n; i++ {
			u.Add(multiset.Vec{int64(i), int64(n - i)})
		}
		if len(u.MinBasis()) != n {
			t.Fatalf("antichain of %d elements has %d", n, len(u.MinBasis()))
		}
		canon := CanonicalUpSet(u)
		restored, err := RestoreUpSet(2, slices.Concat(canon.MinBasis()...))
		if err != nil {
			t.Fatal(err)
		}
		more := NewUpSet(2)
		for i := 0; i < n; i++ {
			more.Add(multiset.Vec{int64(n + 1 + i), 0}, multiset.Vec{0, int64(n + 1 + i)})
		}
		for _, v := range []*UpSet{canon, u.Clone(), restored, u.Clone().Union(more)} {
			checkIndexMembership(t, v)
		}
	}
}

// checkIndexMembership checks a set's duplicate index by membership: every
// stored element is found, the index holds exactly the stored elements,
// and a probe for a non-member (an element with its first coordinate
// raised past every stored one) misses.
func checkIndexMembership(t *testing.T, u *UpSet) {
	t.Helper()
	if u.index.used != u.Stored() {
		t.Fatalf("index of %s holds %d ids, want %d", u, u.index.used, u.Stored())
	}
	for id := int32(0); int(id) < u.Stored(); id++ {
		m := slices.Clone(u.storedAt(id))
		if !u.index.lookup(u, m, hashWords(m)) {
			t.Fatalf("index of %s misses element %v", u, m)
		}
		m[0] += 1 << 20
		if u.index.lookup(u, m, hashWords(m)) {
			t.Fatalf("index of %s finds non-member %v", u, m)
		}
	}
}
