// Package dioph solves homogeneous linear Diophantine systems over the
// naturals: given an integer matrix A, it computes the Hilbert basis of
// {y ∈ ℕ^v : A·y = 0} (all ≤-minimal non-zero solutions) with the
// Contejean–Devie algorithm, and a generating basis of {y ∈ ℕ^v : A·y ≥ 0}
// via slack variables.
//
// This is the engine behind Section 5.4 of the paper: the potentially
// realisable multisets of transitions (Definition 4) are the solutions of
// Σ_t π(t)·Δt(q) ≥ 0 for q ∈ Q∖{x}, Pottier's theorem (Theorem 5.6) bounds
// the ‖·‖₁ of basis elements, and Corollary 5.7 instantiates the bound as
// the Pottier constant ξ.
package dioph

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/multiset"
)

// ErrSearchTooLarge is returned when the Contejean–Devie frontier exceeds
// the configured candidate budget.
var ErrSearchTooLarge = errors.New("dioph: candidate budget exceeded")

// Options bounds the solver's work.
type Options struct {
	// MaxCandidates bounds the total number of frontier vectors examined;
	// 0 means 2,000,000.
	MaxCandidates int
	// Interrupt, when non-nil, cancels the search cooperatively: the
	// solver aborts with ErrInterrupted soon after the channel closes.
	Interrupt <-chan struct{}
}

// ErrInterrupted is returned when Options.Interrupt closes mid-search.
var ErrInterrupted = errors.New("dioph: interrupted")

// HilbertBasisEq returns all ≤-minimal non-zero solutions of A·y = 0 over
// ℕ^v, where A has rows A[i] of length v. Every solution of the system is a
// sum of a multiset of returned vectors (the Hilbert basis property).
//
// The algorithm is Contejean–Devie: breadth-first search from the unit
// vectors, expanding y by e_j only when ⟨A·y, A·e_j⟩ < 0 (a step that makes
// the residual smaller in the geometric sense), pruning candidates
// dominated by already-found solutions.
func HilbertBasisEq(a [][]int64, v int, opts Options) ([]multiset.Vec, error) {
	if err := validate(a, v); err != nil {
		return nil, err
	}
	budget := opts.MaxCandidates
	if budget <= 0 {
		budget = 2_000_000
	}
	e := len(a)
	// Precompute A·e_j.
	cols := make([]multiset.Vec, v)
	for j := 0; j < v; j++ {
		col := make(multiset.Vec, e)
		for i := 0; i < e; i++ {
			col[i] = a[i][j]
		}
		cols[j] = col
	}

	type node struct {
		y  multiset.Vec
		ay multiset.Vec
	}
	var minimal []multiset.Vec
	frontier := make([]node, 0, v)
	// Frontier dedup hashes raw coordinates (see vecset.go) instead of
	// building a string key per candidate.
	seen := newVecSet(v)
	for j := 0; j < v; j++ {
		y := multiset.Unit(v, j)
		frontier = append(frontier, node{y: y, ay: cols[j].Clone()})
		seen.insert(y)
	}
	examined := 0
	for len(frontier) > 0 {
		var next []node
		for _, nd := range frontier {
			examined++
			if examined > budget {
				return nil, fmt.Errorf("%w: %d candidates", ErrSearchTooLarge, examined)
			}
			if examined&4095 == 0 && opts.Interrupt != nil {
				select {
				case <-opts.Interrupt:
					return nil, ErrInterrupted
				default:
				}
			}
			if multiset.DominatesAny(nd.y, minimal) {
				// nd.y ≥ an existing minimal solution. If equal it is that
				// solution; otherwise neither it nor its extensions can be
				// minimal.
				continue
			}
			if nd.ay.IsZero() {
				minimal = append(minimal, nd.y)
				continue
			}
			for j := 0; j < v; j++ {
				if dot(nd.ay, cols[j]) >= 0 {
					continue
				}
				y2 := nd.y.Clone()
				y2[j]++
				if !seen.insert(y2) {
					continue
				}
				next = append(next, node{y: y2, ay: nd.ay.Add(cols[j])})
			}
		}
		frontier = next
	}
	return multiset.Minimal(minimal), nil
}

// GeneratorsIneq returns a generating basis of {y ∈ ℕ^v : A·y ≥ 0}: every
// solution is a sum of a multiset of returned vectors. It is computed as
// the projection of the Hilbert basis of the slack-extended equation system
// A·y − s = 0. (Note that for inequality systems the generating basis may
// contain vectors that are not ≤-minimal solutions — e.g. y₀ ≥ y₁ needs
// both (1,0) and (1,1) — so minimisation must not be applied to the
// projections.)
func GeneratorsIneq(a [][]int64, v int, opts Options) ([]multiset.Vec, error) {
	if err := validate(a, v); err != nil {
		return nil, err
	}
	e := len(a)
	ext := make([][]int64, e)
	for i := range a {
		row := make([]int64, v+e)
		copy(row, a[i])
		row[v+i] = -1
		ext[i] = row
	}
	basis, err := HilbertBasisEq(ext, v+e, opts)
	if err != nil {
		return nil, err
	}
	var out []multiset.Vec
	seen := newVecSet(v)
	for _, b := range basis {
		y := b[:v].Clone()
		if y.IsZero() {
			continue // pure-slack solutions project to 0
		}
		if seen.insert(y) {
			out = append(out, y)
		}
	}
	return out, nil
}

// IsSolutionEq reports whether A·y = 0.
func IsSolutionEq(a [][]int64, y multiset.Vec) bool {
	for _, row := range a {
		var s int64
		for j, c := range row {
			s += c * y[j]
		}
		if s != 0 {
			return false
		}
	}
	return true
}

// IsSolutionIneq reports whether A·y ≥ 0.
func IsSolutionIneq(a [][]int64, y multiset.Vec) bool {
	for _, row := range a {
		var s int64
		for j, c := range row {
			s += c * y[j]
		}
		if s < 0 {
			return false
		}
	}
	return true
}

// PottierBound returns Pottier's bound (Theorem 5.6) on ‖m‖₁ for basis
// elements of a system of e rows: (1 + max_i Σ_j |a_ij|)^e, as a big.Int
// (the bound is exponential in the row count).
func PottierBound(a [][]int64) *big.Int {
	var maxRow int64
	for _, row := range a {
		var s int64
		for _, c := range row {
			if c < 0 {
				s -= c
			} else {
				s += c
			}
		}
		if s > maxRow {
			maxRow = s
		}
	}
	base := big.NewInt(maxRow + 1)
	return new(big.Int).Exp(base, big.NewInt(int64(len(a))), nil)
}

// SlackPottierBound returns the Pottier bound of the slack-extended system
// used by GeneratorsIneq: (2 + max_i Σ_j |a_ij|)^e. Projections of the
// extended basis obey this ‖·‖₁ bound.
func SlackPottierBound(a [][]int64) *big.Int {
	var maxRow int64
	for _, row := range a {
		var s int64
		for _, c := range row {
			if c < 0 {
				s -= c
			} else {
				s += c
			}
		}
		if s > maxRow {
			maxRow = s
		}
	}
	base := big.NewInt(maxRow + 2)
	return new(big.Int).Exp(base, big.NewInt(int64(len(a))), nil)
}

func validate(a [][]int64, v int) error {
	if v < 0 {
		return fmt.Errorf("dioph: negative variable count %d", v)
	}
	for i, row := range a {
		if len(row) != v {
			return fmt.Errorf("dioph: row %d has %d columns, want %d", i, len(row), v)
		}
	}
	return nil
}

func dot(u, v multiset.Vec) int64 {
	var s int64
	for i, x := range u {
		s += x * v[i]
	}
	return s
}
