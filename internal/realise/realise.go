// Package realise implements the potentially realisable multisets of
// transitions of Section 5.1/5.4 of the paper. A multiset π ∈ ℕ^T is
// potentially realisable (Definition 4) if IC(i) ==π⇒ C for some input i and
// configuration C, where ==π⇒ is the displacement-only step relation
// C ==π⇒ C + Δπ. For a leaderless protocol with single input variable x
// this holds iff
//
//	Σ_t π(t)·Δt(q) ≥ 0   for every q ∈ Q∖{x},
//
// a homogeneous system of |Q|−1 Diophantine inequalities over ℕ^T whose
// generating basis, by Pottier's theorem, consists of multisets of small
// ‖·‖₁ (Corollary 5.7, the Pottier constant ξ).
package realise

import (
	"errors"
	"fmt"

	"repro/internal/dioph"
	"repro/internal/ideal"
	"repro/internal/multiset"
	"repro/internal/protocol"
)

// Errors reported by System and Basis.
var (
	ErrNotLeaderless = errors.New("realise: potential realisability requires a leaderless protocol")
	ErrMultiInput    = errors.New("realise: potential realisability requires a single input variable")
)

// TransitionMultiset is a sparse multiset over transition indices.
type TransitionMultiset map[int]int64

// Size returns |π| = Σ_t π(t).
func (pi TransitionMultiset) Size() int64 {
	var s int64
	for _, n := range pi {
		s += n
	}
	return s
}

// Add returns π + ρ.
func (pi TransitionMultiset) Add(rho TransitionMultiset) TransitionMultiset {
	out := make(TransitionMultiset, len(pi)+len(rho))
	for t, n := range pi {
		out[t] = n
	}
	for t, n := range rho {
		out[t] += n
	}
	return out
}

// Displacement returns Δπ = Σ_t π(t)·Δt.
func (pi TransitionMultiset) Displacement(p *protocol.Protocol) multiset.Vec {
	return p.ParikhDisplacement(map[int]int64(pi))
}

// System builds the inequality system of Definition 4 for a leaderless
// single-input protocol: one row per state q ≠ I(x), one column per
// non-identity transition (identity transitions have Δt = 0; they are
// solutions of every homogeneous system and are omitted from the basis).
// cols[j] is the protocol transition index of column j.
func System(p *protocol.Protocol) (a [][]int64, cols []int, err error) {
	if !p.Leaderless() {
		return nil, nil, ErrNotLeaderless
	}
	if p.NumInputs() != 1 {
		return nil, nil, ErrMultiInput
	}
	x := int(p.InputState(0))
	for t := 0; t < p.NumTransitions(); t++ {
		if !p.Displacement(t).IsZero() {
			cols = append(cols, t)
		}
	}
	for q := 0; q < p.NumStates(); q++ {
		if q == x {
			continue
		}
		row := make([]int64, len(cols))
		for j, t := range cols {
			row[j] = p.Displacement(t)[q]
		}
		a = append(a, row)
	}
	return a, cols, nil
}

// Basis computes a generating basis of the potentially realisable multisets:
// every potentially realisable π (restricted to non-identity transitions) is
// a sum of a multiset of returned elements. The basis is returned in
// canonical order (generator vectors sorted lexicographically by column),
// the order durable artifacts preserve.
func Basis(p *protocol.Protocol, opts dioph.Options) ([]TransitionMultiset, error) {
	a, cols, err := System(p)
	if err != nil {
		return nil, err
	}
	gens, err := dioph.GeneratorsIneq(a, len(cols), opts)
	if err != nil {
		return nil, fmt.Errorf("realise: solving Definition 4 system: %w", err)
	}
	ideal.SortBasis(gens)
	out := make([]TransitionMultiset, 0, len(gens))
	for _, g := range gens {
		pi := make(TransitionMultiset)
		for j, n := range g {
			if n != 0 {
				pi[cols[j]] = n
			}
		}
		out = append(out, pi)
	}
	return out, nil
}

// IsPotentiallyRealisable checks Definition 4 directly for a leaderless
// single-input protocol: Δπ(q) ≥ 0 for all q ≠ I(x).
func IsPotentiallyRealisable(p *protocol.Protocol, pi TransitionMultiset) (bool, error) {
	if !p.Leaderless() {
		return false, ErrNotLeaderless
	}
	if p.NumInputs() != 1 {
		return false, ErrMultiInput
	}
	d := pi.Displacement(p)
	x := int(p.InputState(0))
	for q, v := range d {
		if q != x && v < 0 {
			return false, nil
		}
	}
	return true, nil
}

// Witness returns the smallest input i with IC(i) ==π⇒ C ≥ 0 and that C:
// i = max(0, −Δπ(x)) and C = i·x + Δπ. The caller must have checked
// potential realisability; Witness panics on a negative coordinate outside
// x.
func Witness(p *protocol.Protocol, pi TransitionMultiset) (i int64, c multiset.Vec) {
	d := pi.Displacement(p)
	x := int(p.InputState(0))
	if d[x] < 0 {
		i = -d[x]
	}
	c = d.Clone()
	c[x] += i
	if !c.IsNatural() {
		panic(fmt.Sprintf("realise: multiset not potentially realisable: Δπ = %v", d))
	}
	return i, c
}
