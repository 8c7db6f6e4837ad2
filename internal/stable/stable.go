// Package stable computes the stable sets of a population protocol exactly,
// for all population sizes at once, using backward coverability — the
// standard well-structured-transition-system algorithm, applicable here
// because configurations under ≤ form a well-quasi-order (Dickson's lemma)
// and firing is monotone.
//
// Definition 2 of the paper: a configuration C is b-stable if every
// configuration reachable from C has output b; SC_b is the set of b-stable
// configurations, and Lemma 3.1 shows it is downward closed. Its complement
//
//	U_b = { C : C can reach a configuration covering a state q with O(q) ≠ b }
//
// is upward closed (by monotonicity) and is computed as a backward
// reachability fixpoint from the generators {1·q : O(q) ≠ b}: for an
// upward-closed set with minimal element m and a transition t with
// precondition pre(t) = ⟅p,q⟆, the minimal configurations that can fire t
// into ↑m are max((m − Δt)⁺, pre(t)). The fixpoint terminates by Dickson's
// lemma. SC_b is then the ideal decomposition of the complement, from which
// the paper's basis elements (B, S) and their norms (Lemma 3.2) are read
// off directly.
//
// The fixpoint is frontier-driven: a round derives predecessors only of the
// elements that became minimal in the previous round, because predecessors
// of older elements were already derived and, the set being monotone
// non-shrinking under Add, anything dominated once stays dominated. Within
// a round, a transition t that puts agents only into states m does not
// occupy (post(t) ∩ supp(m) = ∅) is never visited: its predecessor is ≥ m,
// so inserting it could not change the set. The rows that remain are read
// off per-state row bitsets, and each predecessor is inserted as soon as it
// is derived, in frontier × transition order. The retained seed fixpoint
// and an unpruned copy of the round (reference_test.go) are the test
// oracles of this core.
package stable

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/ideal"
	"repro/internal/multiset"
	"repro/internal/protocol"
)

// ErrBasisTooLarge is returned when the backward fixpoint exceeds the
// configured basis size limit.
var ErrBasisTooLarge = errors.New("stable: backward coverability basis exceeds limit")

// ErrInterrupted is returned when Options.Interrupt closes mid-analysis.
var ErrInterrupted = errors.New("stable: interrupted")

// Analysis holds the computed stable sets of one protocol. An Analysis is
// immutable once returned by Analyze: every accessor hands out shared
// internal values (the engine caches analyses across requests), so callers
// must not modify what they receive.
type Analysis struct {
	p *protocol.Protocol
	// unstable[b] = U_b: configurations that can reach an agent with
	// output ≠ b.
	unstable [2]*ideal.UpSet
	// sc[b] = SC_b as a downward-closed set.
	sc [2]*ideal.DownSet
	// scAll = SC_0 ∪ SC_1 and its basis, computed once in Analyze (SC and
	// SCBasis sit on the pump finders' hot paths).
	scAll      *ideal.DownSet
	scAllBasis []BasisElement
	// iterations[b] counts fixpoint rounds, frontier[b] the total frontier
	// elements expanded, for reporting.
	iterations [2]int
	frontier   [2]int
}

// Options configures Analyze.
type Options struct {
	// MaxBasis bounds the number of minimal elements maintained per output;
	// 0 means 200000.
	MaxBasis int
	// Interrupt, when non-nil, cancels the analysis cooperatively: the
	// fixpoint and the complement poll it, and Analyze aborts with
	// ErrInterrupted soon after the channel closes.
	Interrupt <-chan struct{}
}

// Analyze computes SC_0 and SC_1 for the protocol.
func Analyze(p *protocol.Protocol, opts Options) (*Analysis, error) {
	maxBasis := opts.MaxBasis
	if maxBasis <= 0 {
		maxBasis = 200_000
	}
	a := &Analysis{p: p}
	pt := newPredTable(p)
	for b := 0; b <= 1; b++ {
		u, iters, expanded, err := backwardCover(p, pt, b, maxBasis, opts.Interrupt)
		if err != nil {
			return nil, fmt.Errorf("computing U_%d: %w", b, err)
		}
		// Canonical element order: a computed analysis and one restored from
		// a durable artifact expose identical bases and derived structures.
		a.unstable[b] = ideal.CanonicalUpSet(u)
		a.iterations[b], a.frontier[b] = iters, expanded
		if a.sc[b], err = ideal.ComplementUp(a.unstable[b], opts.Interrupt); err != nil {
			return nil, fmt.Errorf("complementing U_%d: %w", b, ErrInterrupted)
		}
	}
	a.scAll = a.sc[0].Union(a.sc[1])
	a.scAllBasis = basisOf(a.scAll)
	return a, nil
}

// predRow is one non-identity transition of the pred-basis step: the
// minimal configurations firing t into ↑m are max((m − delta)⁺, pre).
type predRow struct {
	delta multiset.Vec
	pre   multiset.Vec
}

// predTable is the pred-basis step of one protocol, built once per
// Analyze: its rows, and for each state q the bitset of the rows that add
// agents to q (delta(q) > 0), each words uint64s long.
//
// A row t can lower an element m only if m occupies a state of post(t):
// otherwise (m − delta)⁺ ≥ m coordinatewise (delta ≤ 0 off post(t), and
// m is 0 on post(t)), so the predecessor is ≥ m, and m or the live element
// dominating it already covers it — Insert would reject it without
// touching the set. The union of the bitsets of supp(m) is therefore
// exactly the set of rows worth visiting for m.
type predTable struct {
	rows   []predRow
	words  int
	byPost []uint64 // state q's row bitset at [q*words, (q+1)*words)
}

// newPredTable builds the rows, one per non-identity transition, and the
// per-state row bitsets. The rows' pre vectors are views into one slab.
func newPredTable(p *protocol.Protocol) *predTable {
	d := p.NumStates()
	pt := &predTable{rows: make([]predRow, 0, p.NumTransitions())}
	pres := make([]int64, p.NumTransitions()*d)
	for t := 0; t < p.NumTransitions(); t++ {
		delta := p.Displacement(t)
		if delta.IsZero() {
			continue
		}
		o := len(pt.rows) * d
		pre := multiset.Vec(pres[o : o+d : o+d])
		tr := p.Transition(t)
		pre[tr.P]++
		pre[tr.Q]++
		pt.rows = append(pt.rows, predRow{delta: delta, pre: pre})
	}
	pt.words = (len(pt.rows) + 63) / 64
	pt.byPost = make([]uint64, d*pt.words)
	for t, row := range pt.rows {
		for q, x := range row.delta {
			if x > 0 {
				pt.byPost[q*pt.words+t>>6] |= 1 << (uint(t) & 63)
			}
		}
	}
	return pt
}

// lowering writes into mask (len words) the bitset of the rows that can
// lower m: the union of the row bitsets of the states m occupies.
func (pt *predTable) lowering(mask []uint64, m []int64) {
	clear(mask)
	for q, x := range m {
		if x > 0 {
			rows := pt.byPost[q*pt.words : (q+1)*pt.words]
			for k, w := range rows {
				mask[k] |= w
			}
		}
	}
}

// predInto writes max((m − delta)⁺, pre) into dst (len d, no allocation).
func predInto(dst, m []int64, row *predRow) {
	for i := range dst {
		x := m[i] - row.delta[i]
		if x < 0 {
			x = 0
		}
		if p := row.pre[i]; p > x {
			x = p
		}
		dst[i] = x
	}
}

// stopped polls a cooperative stop channel; a nil channel never stops.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// seedGenerators inserts the U_b generators {1·q : O(q) ≠ b} into a fresh
// antichain and returns it with the generator frontier.
func seedGenerators(p *protocol.Protocol, b int) (*ideal.UpSet, []int32) {
	d := p.NumStates()
	u := ideal.NewUpSet(d)
	var frontier []int32
	for q := 0; q < d; q++ {
		if p.Output(protocol.State(q)) != b {
			if id, grew := u.Insert(multiset.Unit(d, q)); grew {
				frontier = append(frontier, int32(id))
			}
		}
	}
	return u, frontier
}

// backwardCover computes U_b by the frontier-driven pred-basis fixpoint,
// starting from the generator frontier. It returns the fixpoint, the number
// of rounds, and the total number of frontier elements expanded.
func backwardCover(p *protocol.Protocol, pt *predTable, b, maxBasis int, stop <-chan struct{}) (*ideal.UpSet, int, int, error) {
	u, frontier := seedGenerators(p, b)
	var (
		iters    int
		expanded int
		roundF   []int32 // live frontier of the current round
	)
	pred := make([]int64, u.Dim())
	mask := make([]uint64, pt.words)
	for len(frontier) > 0 {
		iters++
		// Elements dominated since they were enqueued derive nothing their
		// dominator (also in this frontier, and alive) does not cover.
		roundF = roundF[:0]
		for _, id := range frontier {
			if u.Alive(int(id)) {
				roundF = append(roundF, id)
			}
		}
		if len(roundF) == 0 {
			break
		}
		expanded += len(roundF)

		// The view m stays valid while the Inserts below extend and prune
		// the set (the arena is append-only), so each predecessor is
		// inserted as soon as it is derived. Rows are visited in ascending
		// order, and only those that can lower m (see predTable): a row
		// left out is an Insert that would have been a no-op.
		frontier = frontier[:0]
		for _, id := range roundF {
			if stopped(stop) {
				return nil, iters, expanded, ErrInterrupted
			}
			m := u.At(int(id))
			pt.lowering(mask, m)
			for k, w := range mask {
				for ; w != 0; w &= w - 1 {
					predInto(pred, m, &pt.rows[k<<6|bits.TrailingZeros64(w)])
					if nid, grew := u.Insert(pred); grew {
						frontier = append(frontier, int32(nid))
					}
				}
			}
		}
		if u.Size() > maxBasis {
			return nil, iters, expanded, fmt.Errorf("%w: %d elements", ErrBasisTooLarge, u.Size())
		}
	}
	if iters == 0 {
		// No frontier at all (e.g. every state already has output b, so
		// there are no generators): report the one vacuous round the seed
		// fixpoint counted.
		iters = 1
	}
	return u, iters, expanded, nil
}

// Protocol returns the analyzed protocol.
func (a *Analysis) Protocol() *protocol.Protocol { return a.p }

// StableSet returns SC_b as a downward-closed set. The returned set is
// shared; callers must not modify it.
func (a *Analysis) StableSet(b int) *ideal.DownSet { return a.sc[b] }

// SC returns SC = SC_0 ∪ SC_1, computed once per analysis. The returned
// set is shared; callers must not modify it.
func (a *Analysis) SC() *ideal.DownSet { return a.scAll }

// Unstable returns U_b, the upward-closed complement of SC_b. The returned
// set is shared; callers must not modify it.
func (a *Analysis) Unstable(b int) *ideal.UpSet { return a.unstable[b] }

// Iterations returns the number of fixpoint rounds used for U_b.
func (a *Analysis) Iterations(b int) int { return a.iterations[b] }

// FrontierProcessed returns the total number of frontier elements expanded
// by the U_b fixpoint — the work measure of the frontier-driven core (the
// seed fixpoint re-expanded the whole basis every round).
func (a *Analysis) FrontierProcessed(b int) int { return a.frontier[b] }

// IsStable reports whether configuration c is b-stable.
func (a *Analysis) IsStable(c protocol.Config, b int) bool {
	return !a.unstable[b].Contains(c)
}

// Classify returns (b, true) if c is b-stable for some b. It implements the
// sim package's Oracle interface, giving simulations an exact convergence
// detector.
func (a *Analysis) Classify(c protocol.Config) (int, bool) {
	if a.IsStable(c, 0) {
		return 0, true
	}
	if a.IsStable(c, 1) {
		return 1, true
	}
	return 0, false
}

// BasisElement is a (B, S) pair as in Section 3: the ideal B + ℕ^S. S is a
// packed coordinate bitset (ideal.Bits); use S.ToMap for the certificate
// map representation.
type BasisElement struct {
	B multiset.Vec
	S ideal.Bits
}

// Norm returns ‖(B,S)‖∞ = ‖B‖∞.
func (e BasisElement) Norm() int64 { return e.B.NormInf() }

// Contains reports whether c ∈ ↓(B + ℕ^S), the downward closure of the
// basis element's ideal (see the package comment of ideal for the exact-form
// correspondence).
func (e BasisElement) Contains(c protocol.Config) bool {
	for i, v := range c {
		if v > e.B[i] && !e.S.Test(i) {
			return false
		}
	}
	return true
}

// Basis returns the basis elements of SC_b derived from its ideal
// decomposition.
func (a *Analysis) Basis(b int) []BasisElement {
	return basisOf(a.sc[b])
}

// SCBasis returns the basis elements of SC = SC_0 ∪ SC_1, computed once
// per analysis. The returned slice is shared; callers must not modify it.
func (a *Analysis) SCBasis() []BasisElement {
	return a.scAllBasis
}

// basisOf reads the basis elements off a decomposition: B is an ideal's
// finite caps (0 on ω), S its ω coordinates. Every B and every S is a
// capacity-capped view into one of two slabs.
func basisOf(ds *ideal.DownSet) []BasisElement {
	ids := ds.Ideals()
	d, w := ds.Dim(), len(ideal.NewBits(ds.Dim()))
	bs := make([]int64, len(ids)*d)
	ss := make(ideal.Bits, len(ids)*w)
	out := make([]BasisElement, len(ids))
	for k, id := range ids {
		e := BasisElement{B: bs[k*d : (k+1)*d : (k+1)*d], S: ss[k*w : (k+1)*w : (k+1)*w]}
		for i := range e.B {
			if c := id.Cap(i); c == ideal.Omega {
				e.S.Set(i)
			} else {
				e.B[i] = c
			}
		}
		out[k] = e
	}
	return out
}

// MeasuredNorm returns the maximal basis-element norm of SC — the measured
// counterpart of the small basis constant β(n) of Lemma 3.2/Definition 3.
func (a *Analysis) MeasuredNorm() int64 {
	return a.SC().Norm()
}

// DecomposeStable splits a stable configuration as c = B + Da with
// Da ∈ ℕ^S for a basis element (B, S) of SC, choosing the ideal that
// maximises the agents carried by S (i.e. minimises |B| = c(Q∖S), the
// choice that makes Lemma 5.5's concentration argument work). The returned
// B agrees with c outside S and is 0 on S, so B + ℕ^S ⊆ SC holds exactly
// in the paper's sense. ok is false if c is not stable.
func (a *Analysis) DecomposeStable(c protocol.Config) (B multiset.Vec, S ideal.Bits, Da multiset.Vec, ok bool) {
	e, found := a.FindStableIdeal(c)
	if !found {
		return nil, nil, nil, false
	}
	B = multiset.New(c.Dim())
	Da = multiset.New(c.Dim())
	for i, v := range c {
		if e.S.Test(i) {
			Da[i] = v
		} else {
			B[i] = v
		}
	}
	return B, e.S, Da, true
}

// FindStableIdeal returns the basis element of SC whose ideal contains c,
// preferring (as Lemma 5.5 does) one whose S-part carries most of c's
// agents. ok is false if c is not stable.
func (a *Analysis) FindStableIdeal(c protocol.Config) (BasisElement, bool) {
	best := BasisElement{}
	found := false
	var bestOnS int64 = -1
	for _, e := range a.SCBasis() {
		if !e.Contains(c) {
			continue
		}
		var onS int64
		for i, v := range c {
			if e.S.Test(i) {
				onS += v
			}
		}
		if onS > bestOnS {
			best, bestOnS, found = e, onS, true
		}
	}
	return best, found
}
