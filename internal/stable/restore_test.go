package stable

import (
	"slices"
	"testing"

	"repro/internal/ideal"
	"repro/internal/multiset"
	"repro/internal/protocols"
)

// TestRestoreEqualsAnalyze pins the durable form's own fields: an
// Analysis restored by RestoreDerived from its MinBasis form and counters
// reports the same U_b minimal bases, element by element in the same
// order, and the same fixpoint counters as a fresh Analyze, over the whole
// builtin catalog — the round trip the engine's stable artifact codec
// relies on to re-encode a restored analysis to the same bytes.
func TestRestoreEqualsAnalyze(t *testing.T) {
	for name, e := range protocols.Catalog() {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := e.Protocol
			fresh, err := Analyze(p, Options{})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			var basis [2][]int64
			var iters, front [2]int
			for b := 0; b <= 1; b++ {
				basis[b] = slices.Concat(fresh.Unstable(b).MinBasis()...)
				iters[b] = fresh.Iterations(b)
				front[b] = fresh.FrontierProcessed(b)
			}
			restored, err := RestoreDerived(p, basis, iters, front, fresh.Derived())
			if err != nil {
				t.Fatalf("RestoreDerived: %v", err)
			}
			for b := 0; b <= 1; b++ {
				if !restored.Unstable(b).Equal(fresh.Unstable(b)) {
					t.Fatalf("U_%d differs after restore", b)
				}
				fb, rb := fresh.Unstable(b).MinBasis(), restored.Unstable(b).MinBasis()
				if len(fb) != len(rb) {
					t.Fatalf("U_%d basis sizes differ: %d vs %d", b, len(fb), len(rb))
				}
				for i := range fb {
					if !fb[i].Equal(rb[i]) {
						t.Fatalf("U_%d basis element %d differs: %v vs %v", b, i, fb[i], rb[i])
					}
				}
				if restored.Iterations(b) != fresh.Iterations(b) ||
					restored.FrontierProcessed(b) != fresh.FrontierProcessed(b) {
					t.Fatalf("U_%d counters differ", b)
				}
			}
			fsc, rsc := fresh.SCBasis(), restored.SCBasis()
			if len(fsc) != len(rsc) {
				t.Fatalf("SC basis sizes differ: %d vs %d", len(fsc), len(rsc))
			}
			for i := range fsc {
				if !fsc[i].B.Equal(rsc[i].B) || !fsc[i].S.Equal(rsc[i].S) {
					t.Fatalf("SC basis element %d differs", i)
				}
			}
			if fresh.MeasuredNorm() != restored.MeasuredNorm() {
				t.Fatalf("MeasuredNorm differs: %d vs %d", fresh.MeasuredNorm(), restored.MeasuredNorm())
			}
		})
	}
}

// TestRestoreDerivedEqualsAnalyze pins the v2 artifact contract: an
// Analysis rebuilt from its bases PLUS the persisted derived
// decompositions — complementation skipped entirely — is bit-identical to
// a fresh Analyze, including the SC decomposition iteration order and the
// derived payload it would itself persist.
func TestRestoreDerivedEqualsAnalyze(t *testing.T) {
	for name, e := range protocols.Catalog() {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := e.Protocol
			fresh, err := Analyze(p, Options{})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			var basis [2][]int64
			var iters, front [2]int
			for b := 0; b <= 1; b++ {
				basis[b] = slices.Concat(fresh.Unstable(b).MinBasis()...)
				iters[b] = fresh.Iterations(b)
				front[b] = fresh.FrontierProcessed(b)
			}
			restored, err := RestoreDerived(p, basis, iters, front, fresh.Derived())
			if err != nil {
				t.Fatalf("RestoreDerived: %v", err)
			}
			for b := 0; b <= 1; b++ {
				if !restored.Unstable(b).Equal(fresh.Unstable(b)) {
					t.Fatalf("U_%d differs after derived restore", b)
				}
				fi, ri := fresh.StableSet(b).Ideals(), restored.StableSet(b).Ideals()
				if len(fi) != len(ri) {
					t.Fatalf("SC_%d decomposition sizes differ: %d vs %d", b, len(fi), len(ri))
				}
				for i := range fi {
					if !fi[i].Subsumes(ri[i]) || !ri[i].Subsumes(fi[i]) {
						t.Fatalf("SC_%d ideal %d differs: %v vs %v", b, i, fi[i], ri[i])
					}
				}
			}
			fsc, rsc := fresh.SCBasis(), restored.SCBasis()
			if len(fsc) != len(rsc) {
				t.Fatalf("SC basis sizes differ: %d vs %d", len(fsc), len(rsc))
			}
			for i := range fsc {
				if !fsc[i].B.Equal(rsc[i].B) || !fsc[i].S.Equal(rsc[i].S) {
					t.Fatalf("SC basis element %d differs", i)
				}
			}
			if fresh.MeasuredNorm() != restored.MeasuredNorm() {
				t.Fatalf("MeasuredNorm differs: %d vs %d", fresh.MeasuredNorm(), restored.MeasuredNorm())
			}
		})
	}
}

func TestRestoreDerivedRejectsBadDims(t *testing.T) {
	p := protocols.Majority().Protocol
	fresh, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var basis [2][]int64
	for b := 0; b <= 1; b++ {
		basis[b] = slices.Concat(fresh.Unstable(b).MinBasis()...)
	}
	der := fresh.Derived()
	der.SCAll = append(der.SCAll, slices.Repeat([]int64{ideal.Omega}, p.NumStates()+2)...) // ideal.FullIdeal(d+2)
	if _, err := RestoreDerived(p, basis, [2]int{1, 1}, [2]int{0, 0}, der); err == nil {
		t.Fatal("RestoreDerived accepted wrong-dimension ideal")
	}
}

// TestRestoreRejectsBadInput: the durable-form checks RestoreDerived makes
// before trusting a basis — positive iteration counts, the protocol's
// dimension, and the canonical element order the bulk restore requires.
func TestRestoreRejectsBadInput(t *testing.T) {
	p := protocols.Majority().Protocol
	fresh, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var basis [2][]int64
	for b := 0; b <= 1; b++ {
		basis[b] = slices.Concat(fresh.Unstable(b).MinBasis()...)
	}
	der := fresh.Derived()
	if _, err := RestoreDerived(p, basis, [2]int{0, 1}, [2]int{0, 0}, der); err == nil {
		t.Fatal("RestoreDerived accepted zero iteration count")
	}
	bad := basis
	bad[0] = multiset.New(p.NumStates() + 1)
	if _, err := RestoreDerived(p, bad, [2]int{1, 1}, [2]int{0, 0}, der); err == nil {
		t.Fatal("RestoreDerived accepted wrong-dimension element")
	}
	d := p.NumStates()
	n := len(basis[0]) / d
	if n < 2 {
		t.Fatalf("majority U_0 basis has %d elements, need 2 to reorder", n)
	}
	bad[0] = append(slices.Clone(basis[0][(n-1)*d:]), basis[0][:(n-1)*d]...)
	if _, err := RestoreDerived(p, bad, [2]int{1, 1}, [2]int{0, 0}, der); err == nil {
		t.Fatal("RestoreDerived accepted a basis out of canonical order")
	}
}
