package stable

import (
	"fmt"

	"repro/internal/ideal"
	"repro/internal/multiset"
	"repro/internal/protocol"
)

// This file is the delta path of the incremental family-parametric
// analysis: AnalyzeWarm computes the same stable sets Analyze does, but
// seeds the backward-coverability fixpoint from a previously analyzed
// family neighbor (flock:6 when analyzing flock:7) instead of starting
// from the generators alone.
//
// Soundness is the crux. The neighbor's U_b basis cannot be imported
// blindly: family semantics drift with the parameter. In flock:η the state
// named "6" has output 1 at η = 6 and output 0 at η = 7, so old basis
// elements of total value 6 lie outside U_0 of flock:7 — importing them
// would grow the antichain beyond the true fixpoint. AnalyzeWarm therefore
// treats rebased neighbor elements as *candidates* and certifies each one
// against the NEW protocol only, by firing chains: a candidate m is
// certified when some new-protocol transition r with m ≥ pre(r) fires m
// into the upward closure of the already-certified set (seeded with the
// new generators). By induction every certified element genuinely belongs
// to U_b, whatever protocol the candidate came from. Certification
// cascades along the old derivation chains — if m = pred_r(m′) then firing
// r from m reaches a configuration ≥ m′ — so in practice almost every
// still-valid neighbor element certifies, while semantically stale ones
// are dropped.
//
// Completeness needs no condition on the family: U_b is the pred-closure
// of its generators, and closure(G ∪ X) = closure(G) = U_b for any X ⊆
// U_b, so running the standard fixpoint with the WHOLE seeded antichain as
// the first frontier (not just the generators) reaches exactly U_b. The
// first round re-expands every seeded element once; when the seed is close
// to the answer that round discovers almost nothing and the fixpoint
// terminates in a handful of rounds instead of O(parameter) of them.
// TestAnalyzeWarmMatchesAnalyze and the sweep differential suite pin
// element-for-element equality with Analyze across the builtin catalog and
// randomized families.

// WarmSeed names the neighbor an AnalyzeWarm call extends: a completed
// analysis of another (normally adjacent) member of the same protocol
// family.
type WarmSeed struct {
	// Prev is the neighbor's analysis. Its protocol may have a different
	// state count; states are matched to the new protocol's by name.
	Prev *Analysis
}

// WarmStats reports what the delta path did with the neighbor's basis, per
// output b.
type WarmStats struct {
	// Imported counts rebased neighbor elements that survived the
	// coordinate mapping (and its re-minimization) and entered
	// certification.
	Imported [2]int
	// Certified counts candidates certified into the fixpoint seed by
	// firing chains against the new protocol.
	Certified [2]int
	// Dropped counts neighbor elements discarded: agents on states the new
	// protocol does not have, dominated after rebasing, or uncertifiable
	// (semantically stale under the new parameter).
	Dropped [2]int
}

// ImportedTotal sums Imported over both outputs.
func (s *WarmStats) ImportedTotal() int { return s.Imported[0] + s.Imported[1] }

// CertifiedTotal sums Certified over both outputs.
func (s *WarmStats) CertifiedTotal() int { return s.Certified[0] + s.Certified[1] }

// DroppedTotal sums Dropped over both outputs.
func (s *WarmStats) DroppedTotal() int { return s.Dropped[0] + s.Dropped[1] }

// StateMapping matches the states of an old protocol to a new one by name:
// mapping[q] is the new index of old state q, or -1 when no new state
// carries that name. ok is false when the match is ambiguous (duplicate
// state names on either side), in which case no rebasing should be
// attempted.
func StateMapping(old, new_ *protocol.Protocol) (mapping []int, ok bool) {
	newIdx := make(map[string]int, new_.NumStates())
	for q := 0; q < new_.NumStates(); q++ {
		name := new_.StateName(protocol.State(q))
		if _, dup := newIdx[name]; dup {
			return nil, false
		}
		newIdx[name] = q
	}
	seen := make(map[string]bool, old.NumStates())
	mapping = make([]int, old.NumStates())
	for q := 0; q < old.NumStates(); q++ {
		name := old.StateName(protocol.State(q))
		if seen[name] {
			return nil, false
		}
		seen[name] = true
		if j, found := newIdx[name]; found {
			mapping[q] = j
		} else {
			mapping[q] = -1
		}
	}
	return mapping, true
}

// AnalyzeWarm computes SC_0 and SC_1 for p, seeding each U_b fixpoint from
// the WarmSeed neighbor. The result is element-for-element identical to
// Analyze(p, opts) — same antichains in the same canonical order, so every
// durable encoding is byte-identical — with only the Iterations and
// FrontierProcessed counters reflecting the warm schedule. A nil or
// unusable seed degrades to the from-scratch fixpoint.
func AnalyzeWarm(p *protocol.Protocol, opts Options, seed WarmSeed) (*Analysis, *WarmStats, error) {
	maxBasis := opts.MaxBasis
	if maxBasis <= 0 {
		maxBasis = 200_000
	}
	stats := &WarmStats{}
	var mapping []int
	if seed.Prev != nil {
		mapping, _ = StateMapping(seed.Prev.Protocol(), p)
	}
	a := &Analysis{p: p}
	rows := predRows(p)
	for b := 0; b <= 1; b++ {
		var candidates []multiset.Vec
		prevLen := 0
		if mapping != nil {
			prev := seed.Prev.Unstable(b).MinBasis()
			prevLen = len(prev)
			candidates = ideal.RebaseBasis(prev, mapping, p.NumStates())
		}
		u, frontier, st, err := warmSeedSet(p, b, rows, candidates, opts.Interrupt)
		if err != nil {
			return nil, nil, fmt.Errorf("seeding U_%d: %w", b, err)
		}
		stats.Imported[b] = len(candidates)
		stats.Certified[b] = st
		stats.Dropped[b] = prevLen - st
		iters, expanded, err := runFixpoint(u, frontier, rows, maxBasis, opts.Interrupt)
		if err != nil {
			return nil, nil, fmt.Errorf("computing U_%d: %w", b, err)
		}
		a.setUnstable(b, u, iters, expanded)
	}
	a.finish()
	return a, stats, nil
}

// warmSeedSet builds the warm fixpoint seed for U_b: the generators plus
// every certified candidate, with ALL live elements enqueued as the first
// frontier (the seeded elements' predecessors have not been derived in
// this run, so each must be expanded once — that is what makes the warm
// fixpoint land on exactly closure(G ∪ certified) = U_b).
func warmSeedSet(p *protocol.Protocol, b int, rows []predRow, candidates []multiset.Vec, stop <-chan struct{}) (*ideal.UpSet, []int32, int, error) {
	u, _ := seedGenerators(p, b)
	certified := certifyByFiring(u, rows, candidates, stop)
	if stopped(stop) {
		return nil, nil, 0, ErrInterrupted
	}
	frontier := make([]int32, 0, u.Size())
	for id := 0; id < u.Stored(); id++ {
		if u.Alive(id) {
			frontier = append(frontier, int32(id))
		}
	}
	return u, frontier, certified, nil
}

// certifyByFiring grows the certified upward-closed set c (seeded with the
// U_b generators) by rounds of firing-chain certification: a pending
// candidate m is certified — inserted into c — as soon as some transition
// row r with m ≥ pre(r) fires m into c (m + Δr ∈ ↑c). Only new-protocol
// rows and generators are consulted, so certification is sound whatever
// protocol the candidates came from: a certified m really can reach a
// state with output ≠ b. Candidates already inside ↑c are redundant (they
// are dominated) and dropped. Returns the number certified.
func certifyByFiring(c *ideal.UpSet, rows []predRow, candidates []multiset.Vec, stop <-chan struct{}) int {
	d := c.Dim()
	pending := make([]multiset.Vec, 0, len(candidates))
	for _, m := range candidates {
		if !c.Contains(m) {
			pending = append(pending, m)
		}
	}
	certified := 0
	fired := make(multiset.Vec, d)
	for {
		progressed := false
		next := pending[:0]
		for _, m := range pending {
			if stopped(stop) {
				return certified
			}
			if c.Contains(m) {
				// Certified candidates can dominate pending ones; dominated
				// candidates add nothing to the antichain.
				progressed = true
				continue
			}
			ok := false
			for ri := range rows {
				row := &rows[ri]
				if !multiset.Vec(row.pre).Le(m) {
					continue
				}
				for i := range fired {
					fired[i] = m[i] + row.delta[i]
				}
				if c.Contains(fired) {
					ok = true
					break
				}
			}
			if ok {
				c.Insert(m)
				certified++
				progressed = true
				continue
			}
			next = append(next, m)
		}
		pending = next
		if !progressed || len(pending) == 0 {
			return certified
		}
	}
}
