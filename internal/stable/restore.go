package stable

import (
	"fmt"
	"slices"

	"repro/internal/ideal"
	"repro/internal/protocol"
)

// canonicalOrder reports whether the d-wide rows of the basis slab are
// strictly ascending in the canonical (lexicographic) element order — the
// order every basis this package emits is in, and the precondition for
// the bulk restore. A slab that is not whole rows is caught by the restore
// itself.
func canonicalOrder(basis []int64, d int) bool {
	for o := d; o+d <= len(basis); o += d {
		if slices.Compare(basis[o-d:o], basis[o:o+d]) >= 0 {
			return false
		}
	}
	return true
}

// Derived is the derived-structure payload of an Analysis: the irredundant
// ideal decompositions of SC_0, SC_1 and SC_0 ∪ SC_1, in the order
// ComplementUp and Union produced them, each as one slab of the ideals'
// caps (ideal.RestoreDownSet's input). Persisting it alongside the U_b
// bases lets RestoreDerived skip recomputing the complements — on
// logarithmic-state threshold families recomputing them would make a
// durable-store hit nearly as expensive as the fixpoint it is supposed to
// skip.
type Derived struct {
	SC    [2][]int64
	SCAll []int64
}

// Derived returns the analysis's derived decompositions for persisting.
func (a *Analysis) Derived() Derived {
	return Derived{
		SC:    [2][]int64{a.sc[0].AppendCaps(nil), a.sc[1].AppendCaps(nil)},
		SCAll: a.scAll.AppendCaps(nil),
	}
}

// RestoreDerived rebuilds an Analysis from its durable form — the minimal
// bases of U_0 and U_1 (the elements Unstable(b).MinBasis() returns, back
// to back in one slab each), the recorded iteration and frontier counts —
// plus the persisted derived decompositions, skipping the fixpoint and the
// complementation alike. The bases must be in the canonical element order
// MinBasis emits; they are bulk-restored without domination scans
// (ideal.RestoreUpSet), and the SC sets are restored verbatim
// (ideal.RestoreDownSet), which preserves both the canonical maximal-ideal
// sets and the exact iteration order the computing run produced — every
// accessor returns values bit-identical to a fresh Analyze. Every slab
// becomes part of the Analysis, which is immutable: the caller must not
// modify them afterwards. The caller vouches the derived data was produced
// by Derived() on an equal analysis; dimension mismatches, non-positive
// iteration counts and out-of-order bases are rejected, semantic
// corruption is not detectable here (the engine's content addressing is
// what rules it out).
func RestoreDerived(p *protocol.Protocol, basis [2][]int64, iterations, frontier [2]int, der Derived) (*Analysis, error) {
	d := p.NumStates()
	a := &Analysis{p: p}
	for b := 0; b <= 1; b++ {
		if iterations[b] <= 0 {
			return nil, fmt.Errorf("stable: restore U_%d: non-positive iteration count %d", b, iterations[b])
		}
		if !canonicalOrder(basis[b], d) {
			return nil, fmt.Errorf("stable: restore U_%d: basis not in canonical order", b)
		}
		u, err := ideal.RestoreUpSet(d, basis[b])
		if err != nil {
			return nil, fmt.Errorf("stable: restore U_%d: %w", b, err)
		}
		a.unstable[b] = u
		a.iterations[b] = iterations[b]
		a.frontier[b] = frontier[b]
		sc, err := ideal.RestoreDownSet(d, der.SC[b])
		if err != nil {
			return nil, fmt.Errorf("stable: restore SC_%d: %w", b, err)
		}
		a.sc[b] = sc
	}
	scAll, err := ideal.RestoreDownSet(d, der.SCAll)
	if err != nil {
		return nil, fmt.Errorf("stable: restore SC union: %w", err)
	}
	a.scAll = scAll
	a.scAllBasis = basisOf(a.scAll)
	return a, nil
}
