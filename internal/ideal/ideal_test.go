package ideal

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/multiset"
)

func TestUpSetBasics(t *testing.T) {
	u := NewUpSet(2)
	if !u.IsEmpty() || u.Contains(multiset.Vec{0, 0}) {
		t.Fatal("fresh UpSet must be empty")
	}
	if grew := u.Add(multiset.Vec{2, 1}); !grew {
		t.Fatal("adding to empty set should grow it")
	}
	if !u.Contains(multiset.Vec{2, 1}) || !u.Contains(multiset.Vec{5, 5}) {
		t.Fatal("upward closure violated")
	}
	if u.Contains(multiset.Vec{1, 1}) || u.Contains(multiset.Vec{2, 0}) {
		t.Fatal("below the generator")
	}
	// Adding a dominated element does not grow the set.
	if grew := u.Add(multiset.Vec{3, 3}); grew {
		t.Fatal("dominated generator should not grow the set")
	}
	// Adding a smaller element replaces the generator.
	if grew := u.Add(multiset.Vec{1, 0}); !grew {
		t.Fatal("smaller generator should grow the set")
	}
	if u.Size() != 1 {
		t.Fatalf("basis size = %d, want 1 (minimized)", u.Size())
	}
	if u.Norm() != 1 {
		t.Fatalf("Norm = %d, want 1", u.Norm())
	}
}

func TestUpSetUnionIntersect(t *testing.T) {
	a := NewUpSet(2, multiset.Vec{2, 0})
	b := NewUpSet(2, multiset.Vec{0, 3})
	un := a.Union(b)
	if !un.Contains(multiset.Vec{2, 0}) || !un.Contains(multiset.Vec{0, 3}) {
		t.Fatal("union must contain both generators")
	}
	in := a.Intersect(b)
	if !in.Contains(multiset.Vec{2, 3}) {
		t.Fatal("intersection must contain the max")
	}
	if in.Contains(multiset.Vec{2, 2}) || in.Contains(multiset.Vec{1, 3}) {
		t.Fatal("intersection too large")
	}
	// Intersection with the empty set is empty.
	empty := NewUpSet(2)
	if !a.Intersect(empty).IsEmpty() {
		t.Fatal("intersection with empty set must be empty")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone must be equal")
	}
	if a.Equal(b) {
		t.Fatal("different sets must not be equal")
	}
}

func TestIdealBasics(t *testing.T) {
	id := NewIdeal([]int64{2, Omega, 0})
	tests := []struct {
		v    multiset.Vec
		want bool
	}{
		{multiset.Vec{0, 0, 0}, true},
		{multiset.Vec{2, 100, 0}, true},
		{multiset.Vec{3, 0, 0}, false},
		{multiset.Vec{0, 0, 1}, false},
		{multiset.Vec{0, 0}, false}, // wrong dimension
	}
	for _, tc := range tests {
		if got := id.Contains(tc.v); got != tc.want {
			t.Errorf("Contains(%v) = %t, want %t", tc.v, got, tc.want)
		}
	}
	if id.Norm() != 2 {
		t.Errorf("Norm = %d, want 2", id.Norm())
	}
	if got := id.String(); got != "[2, ω, 0]" {
		t.Errorf("String = %q", got)
	}
	b := id.B()
	if !b.Equal(multiset.Vec{2, 0, 0}) {
		t.Errorf("B = %v", b)
	}
	s := id.S()
	if len(s) != 1 || !s[1] {
		t.Errorf("S = %v", s)
	}
}

func TestIdealSubsumesIntersect(t *testing.T) {
	big := NewIdeal([]int64{Omega, 5})
	small := NewIdeal([]int64{3, 2})
	if !big.Subsumes(small) {
		t.Fatal("big should subsume small")
	}
	if small.Subsumes(big) {
		t.Fatal("small should not subsume big")
	}
	in := big.Intersect(small)
	if in.Cap(0) != 3 || in.Cap(1) != 2 {
		t.Fatalf("Intersect = %v", in)
	}
	full := FullIdeal(2)
	if !full.Subsumes(big) || !full.Subsumes(small) {
		t.Fatal("full ideal subsumes everything")
	}
}

func TestDownSetAddIrredundant(t *testing.T) {
	ds := NewDownSet(2)
	ds.Add(NewIdeal([]int64{1, 1}))
	ds.Add(NewIdeal([]int64{Omega, 0}))
	ds.Add(NewIdeal([]int64{0, 0})) // subsumed by both
	if ds.Size() != 2 {
		t.Fatalf("Size = %d, want 2 (irredundant)", ds.Size())
	}
	ds.Add(NewIdeal([]int64{Omega, 1})) // subsumes {1,1}? no: [1,1] ⊆ [ω,1]; also [ω,0] ⊆ [ω,1]
	if ds.Size() != 1 {
		t.Fatalf("Size = %d, want 1 after adding dominating ideal: %s", ds.Size(), ds)
	}
	if ds.Norm() != 1 {
		t.Fatalf("Norm = %d", ds.Norm())
	}
}

func TestComplementUpKnown(t *testing.T) {
	// Complement of ↑{(2,0), (0,3)} in ℕ² is {v0 ≤ 1 and v1 ≤ 2}.
	u := NewUpSet(2, multiset.Vec{2, 0}, multiset.Vec{0, 3})
	ds, _ := ComplementUp(u, nil)
	if ds.Size() != 1 {
		t.Fatalf("decomposition size = %d (%s), want 1", ds.Size(), ds)
	}
	id := ds.Ideals()[0]
	if id.Cap(0) != 1 || id.Cap(1) != 2 {
		t.Fatalf("complement = %s, want [1, 2]", id)
	}
	// Complement of the empty up-set is everything.
	all, _ := ComplementUp(NewUpSet(2), nil)
	if all.Size() != 1 || all.Ideals()[0].Cap(0) != Omega {
		t.Fatalf("complement of empty = %s", all)
	}
	// Complement of ↑{0} (= everything) is empty.
	none, _ := ComplementUp(NewUpSet(2, multiset.New(2)), nil)
	if !none.IsEmpty() {
		t.Fatalf("complement of full = %s", none)
	}
}

// TestComplementUpInterrupted pins ComplementUp's stop channel: closed
// before the call, a non-trivial complement returns ErrInterrupted and no
// set; left open, the same call completes.
func TestComplementUpInterrupted(t *testing.T) {
	u := NewUpSet(3, multiset.Vec{2, 0, 1}, multiset.Vec{0, 3, 0}, multiset.Vec{1, 1, 1})
	stop := make(chan struct{})
	if ds, err := ComplementUp(u, stop); err != nil || ds.IsEmpty() {
		t.Fatalf("open stop: %s, %v", ds, err)
	}
	close(stop)
	if ds, err := ComplementUp(u, stop); !errors.Is(err, ErrInterrupted) || ds != nil {
		t.Fatalf("closed stop: %v, %v; want nil, ErrInterrupted", ds, err)
	}
}

func TestComplementDownKnown(t *testing.T) {
	// Complement of ↓[1, ω] is ↑{(2,0)}.
	ds := NewDownSet(2, NewIdeal([]int64{1, Omega}))
	u := ComplementDown(ds)
	if u.Size() != 1 {
		t.Fatalf("basis size = %d (%s)", u.Size(), u)
	}
	if !u.Contains(multiset.Vec{2, 0}) || u.Contains(multiset.Vec{1, 99}) {
		t.Fatalf("wrong complement: %s", u)
	}
	// Complement of the empty down-set is everything.
	all := ComplementDown(NewDownSet(2))
	if !all.Contains(multiset.New(2)) {
		t.Fatal("complement of empty down-set must contain 0")
	}
	// Complement of ℕ^d is empty.
	none := ComplementDown(NewDownSet(2, FullIdeal(2)))
	if !none.IsEmpty() {
		t.Fatalf("complement of full = %s", none)
	}
}

// randomUpSet builds an upward-closed set from a few random generators.
func randomUpSet(rr *rand.Rand, d int) *UpSet {
	n := 1 + rr.Intn(4)
	gens := make([]multiset.Vec, n)
	for i := range gens {
		g := multiset.New(d)
		for j := range g {
			g[j] = int64(rr.Intn(4))
		}
		gens[i] = g
	}
	return NewUpSet(d, gens...)
}

// TestQuickComplementDuality: v ∈ U xor v ∈ complement(U), and double
// complement is the identity, checked pointwise on a box.
func TestQuickComplementDuality(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := 1 + rr.Intn(3)
		u := randomUpSet(rr, d)
		ds, _ := ComplementUp(u, nil)
		uu := ComplementDown(ds)
		// Pointwise check on the box {0..5}^d.
		var rec func(i int, v multiset.Vec) bool
		rec = func(i int, v multiset.Vec) bool {
			if i == d {
				inU := u.Contains(v)
				inDS := ds.Contains(v)
				if inU == inDS {
					return false
				}
				if uu.Contains(v) != inU {
					return false
				}
				return true
			}
			for x := int64(0); x <= 5; x++ {
				v[i] = x
				if !rec(i+1, v) {
					return false
				}
			}
			v[i] = 0
			return true
		}
		if !rec(0, multiset.New(d)) {
			return false
		}
		return u.Equal(uu)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntersectUnionSemantics checks set operations pointwise.
func TestQuickIntersectUnionSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := 1 + rr.Intn(3)
		a, b := randomUpSet(rr, d), randomUpSet(rr, d)
		un := a.Union(b)
		in := a.Intersect(b)
		v := multiset.New(d)
		for trial := 0; trial < 100; trial++ {
			for j := range v {
				v[j] = int64(rr.Intn(7))
			}
			if un.Contains(v) != (a.Contains(v) || b.Contains(v)) {
				return false
			}
			if in.Contains(v) != (a.Contains(v) && b.Contains(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickDownSetDownwardClosed: membership is downward closed.
func TestQuickDownSetDownwardClosed(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		d := 1 + rr.Intn(3)
		ds, _ := ComplementUp(randomUpSet(rr, d), nil)
		v := multiset.New(d)
		for trial := 0; trial < 60; trial++ {
			for j := range v {
				v[j] = int64(rr.Intn(6))
			}
			if !ds.Contains(v) {
				continue
			}
			w := v.Clone()
			for j := range w {
				if w[j] > 0 && rr.Intn(2) == 0 {
					w[j]--
				}
			}
			if !ds.Contains(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
