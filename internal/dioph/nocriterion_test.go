package dioph

import (
	"fmt"

	"repro/internal/multiset"
)

// HilbertBasisEqNoCriterion computes the same minimal-solution basis as
// HilbertBasisEq but *without* the Contejean–Devie expansion criterion
// ⟨A·y, A·e_j⟩ < 0: every frontier vector is expanded in every coordinate
// (subject only to domination pruning). It exists only for tests: the
// ablation baseline of BenchmarkCDvsNoCriterion — the criterion is what
// makes the search practical — and an independent oracle for the solver.
//
// Completeness of the frontier search requires a breadth-first order plus
// an explicit bound on ‖y‖₁: a frontier level is abandoned only when no
// vector at that level can still lead to a new minimal solution, which
// without the geometric criterion we approximate by the Pottier bound on
// basis norms. The budget guards against the (exponentially larger)
// explored space.
func HilbertBasisEqNoCriterion(a [][]int64, v int, opts Options) ([]multiset.Vec, error) {
	if err := validate(a, v); err != nil {
		return nil, err
	}
	budget := opts.MaxCandidates
	if budget <= 0 {
		budget = 2_000_000
	}
	bound := PottierBound(a)
	maxNorm := int64(1) << 30
	if bound.IsInt64() {
		maxNorm = bound.Int64()
	}

	var minimal []multiset.Vec
	frontier := make([]multiset.Vec, 0, v)
	seen := make(map[string]bool)
	for j := 0; j < v; j++ {
		y := multiset.Unit(v, j)
		frontier = append(frontier, y)
		seen[y.Key()] = true
	}
	examined := 0
	for len(frontier) > 0 {
		var next []multiset.Vec
		for _, y := range frontier {
			examined++
			if examined > budget {
				return nil, fmt.Errorf("%w: %d candidates (no-criterion ablation)", ErrSearchTooLarge, examined)
			}
			if multiset.DominatesAny(y, minimal) {
				continue
			}
			if IsSolutionEq(a, y) {
				minimal = append(minimal, y)
				continue
			}
			if y.Norm1() >= maxNorm {
				continue
			}
			for j := 0; j < v; j++ {
				y2 := y.Clone()
				y2[j]++
				k := y2.Key()
				if !seen[k] {
					seen[k] = true
					next = append(next, y2)
				}
			}
		}
		frontier = next
	}
	return multiset.Minimal(minimal), nil
}
