package ideal

import (
	"fmt"
	"sort"

	"repro/internal/multiset"
)

// This file is the antichain rebase/import layer of the incremental
// family-parametric analysis: adjacent members of a protocol family
// (flock:6 and flock:7, binary:103 and binary:104) share most of their
// backward-coverability bases, but live in different dimensions with
// permuted coordinates. RebaseBasis transports a basis through an explicit
// coordinate mapping, and SortBasis / CanonicalUpSet fix one canonical
// element order so that warm-started and from-scratch fixpoints are not
// just set-equal but byte-identical in every durable encoding.

// RebaseBasis transports basis elements from an old coordinate space into a
// new one of dimension newDim through mapping: mapping[i] is the new index
// of old coordinate i, or -1 when the coordinate has no counterpart. An
// element with a positive count on an unmapped coordinate is dropped (its
// agents have nowhere to go); the survivors are re-minimized, because a
// mapping that merges or drops coordinates can introduce dominations the
// old antichain did not have. The result is the minimal basis of the
// transported set, in input order of first survivors.
func RebaseBasis(basis []multiset.Vec, mapping []int, newDim int) []multiset.Vec {
	rebased := make([]multiset.Vec, 0, len(basis))
	for _, m := range basis {
		if len(m) != len(mapping) {
			panic(fmt.Sprintf("ideal: rebase element dimension %d, mapping has %d", len(m), len(mapping)))
		}
		out := make(multiset.Vec, newDim)
		ok := true
		for i, v := range m {
			if v == 0 {
				continue
			}
			j := mapping[i]
			if j < 0 || j >= newDim {
				ok = false
				break
			}
			out[j] += v
		}
		if ok {
			rebased = append(rebased, out)
		}
	}
	return multiset.Minimal(rebased)
}

// Less is the canonical total order on equal-dimension vectors:
// lexicographic on coordinates. It is the order SortBasis and
// CanonicalUpSet normalize to.
func Less(a, b multiset.Vec) bool {
	for i, x := range a {
		if x != b[i] {
			return x < b[i]
		}
	}
	return false
}

// SortBasis sorts a basis in place into the canonical (lexicographic)
// element order and returns it.
func SortBasis(basis []multiset.Vec) []multiset.Vec {
	sort.Slice(basis, func(i, j int) bool { return Less(basis[i], basis[j]) })
	return basis
}

// CanonicalUpSet rebuilds an UpSet with its antichain in canonical order:
// the same set, with arena ids assigned in SortBasis order. Two UpSets
// denoting the same set have identical MinBasis slices after
// canonicalization, whatever insertion histories produced them — this is
// what lets a warm-started fixpoint emit artifacts byte-identical to a
// from-scratch one.
func CanonicalUpSet(u *UpSet) *UpSet {
	// The input is an antichain, so the sorted basis is one too and
	// restores without domination scans: arena order == canonical order.
	out, err := RestoreUpSet(u.d, SortBasis(u.MinBasis()))
	if err != nil {
		panic(err) // unreachable: every element has dimension u.d
	}
	return out
}
