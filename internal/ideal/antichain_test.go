package ideal

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/multiset"
)

// sortedKeys renders an antichain as a canonically sorted key list, the
// element-for-element comparison format of the differential tests.
func sortedKeys(basis []multiset.Vec) []string {
	keys := make([]string, len(basis))
	for i, m := range basis {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return keys
}

func equalKeyLists(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDifferentialUpSetVsNaive drives the arena-backed antichain and the
// retained naive core through identical generator streams: every Add must
// report the same growth, every Contains probe must agree, and the minimal
// bases must be equal element for element (after canonical sorting — both
// cores keep insertion order, but removals make the orders diverge).
func TestDifferentialUpSetVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(6)
		u := NewUpSet(d)
		n := NewNaiveUpSet(d)
		g := multiset.New(d)
		for op := 0; op < 300; op++ {
			for i := range g {
				g[i] = int64(rng.Intn(5))
			}
			if rng.Intn(3) == 0 {
				if got, want := u.Contains(g), n.Contains(g); got != want {
					t.Fatalf("trial %d op %d: Contains(%v) = %t, naive %t", trial, op, g, got, want)
				}
				continue
			}
			grewU := u.Add(g.Clone())
			grewN := n.Add(g.Clone())
			if grewU != grewN {
				t.Fatalf("trial %d op %d: Add(%v) grew = %t, naive %t", trial, op, g, grewU, grewN)
			}
			if u.Size() != n.Size() {
				t.Fatalf("trial %d op %d: size %d, naive %d", trial, op, u.Size(), n.Size())
			}
		}
		if u.Norm() != n.Norm() {
			t.Fatalf("trial %d: norm %d, naive %d", trial, u.Norm(), n.Norm())
		}
		if !equalKeyLists(sortedKeys(u.MinBasis()), sortedKeys(n.MinBasis())) {
			t.Fatalf("trial %d: bases differ:\n  arena %v\n  naive %v", trial, u.MinBasis(), n.MinBasis())
		}
		// Clone and Union must preserve the antichain exactly.
		c := u.Clone()
		if !equalKeyLists(sortedKeys(c.MinBasis()), sortedKeys(u.MinBasis())) || !c.Equal(u) {
			t.Fatalf("trial %d: clone differs", trial)
		}
		other := randomUpSet(rng, d)
		un := u.Union(other)
		nn := NewNaiveUpSet(d, n.MinBasis()...)
		nn.Add(other.MinBasis()...)
		if !equalKeyLists(sortedKeys(un.MinBasis()), sortedKeys(nn.MinBasis())) {
			t.Fatalf("trial %d: union differs", trial)
		}
		// The complements must agree too (ComplementUp reads the arena,
		// NaiveComplementUp the naive slice).
		cd, _ := ComplementUp(u, nil)
		nd := NaiveComplementUp(n)
		probe := multiset.New(d)
		for p := 0; p < 200; p++ {
			for i := range probe {
				probe[i] = int64(rng.Intn(6))
			}
			if cd.Contains(probe) != nd.Contains(probe) {
				t.Fatalf("trial %d: complement membership differs at %v", trial, probe)
			}
		}
	}
}

// TestInsertAliveAt pins the storage contract the stable fixpoint's
// frontier relies on: Insert returns a stable id, At views never change,
// and Alive flips exactly when a dominator removes the element.
func TestInsertAliveAt(t *testing.T) {
	u := NewUpSet(2)
	id1, grew := u.Insert(multiset.Vec{3, 1})
	if !grew || id1 < 0 {
		t.Fatalf("Insert = %d,%t", id1, grew)
	}
	if !u.Alive(id1) || !u.At(id1).Equal(multiset.Vec{3, 1}) {
		t.Fatal("fresh element must be alive and readable")
	}
	// A duplicate must not grow and must not return a new id.
	if id, grew := u.Insert(multiset.Vec{3, 1}); grew || id != -1 {
		t.Fatalf("duplicate Insert = %d,%t", id, grew)
	}
	// A dominator removes id1 but its view stays valid.
	id2, grew := u.Insert(multiset.Vec{1, 0})
	if !grew {
		t.Fatal("dominator must grow the set")
	}
	if u.Alive(id1) {
		t.Fatal("dominated element must not stay alive")
	}
	if !u.At(id1).Equal(multiset.Vec{3, 1}) {
		t.Fatal("views of removed elements must stay valid")
	}
	if !u.Alive(id2) || u.Size() != 1 {
		t.Fatalf("size = %d, want 1", u.Size())
	}
	// Re-adding the removed (still dominated) element must not grow.
	if _, grew := u.Insert(multiset.Vec{3, 1}); grew {
		t.Fatal("stale index hit must reject the re-add")
	}
}

func TestBits(t *testing.T) {
	b := NewBits(130)
	for _, i := range []int{0, 63, 64, 129} {
		if b.Test(i) {
			t.Fatalf("fresh bit %d set", i)
		}
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 4 {
		t.Fatalf("Count = %d", b.Count())
	}
	want := []int{0, 63, 64, 129}
	got := b.Members()
	if len(got) != len(want) {
		t.Fatalf("Members = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v", got)
		}
	}
	m := b.ToMap()
	if len(m) != 4 || !m[63] || m[1] {
		t.Fatalf("ToMap = %v", m)
	}
	if !BitsFromMap(130, m).Equal(b) {
		t.Fatal("FromMap(ToMap) must round-trip")
	}
	// Equal ignores capacity differences.
	c := NewBits(64)
	c.Set(0)
	c.Set(63)
	d := NewBits(200)
	d.Set(0)
	d.Set(63)
	if !c.Equal(d) || !d.Equal(c) {
		t.Fatal("Equal must ignore trailing zero words")
	}
	d.Set(190)
	if c.Equal(d) || d.Equal(c) {
		t.Fatal("differing sets must not be Equal")
	}
}
