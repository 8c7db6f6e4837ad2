package stable

// This file retains two oracles of the backward-coverability core:
//
//   - the seed fixpoint verbatim — the restart-the-whole-basis pred-basis
//     loop over the retained naive antichain (ideal.NaiveUpSet),
//     re-deriving predecessors of every minimal element every round through
//     a fresh MinBasis clone — which is also the "before" side of
//     BenchmarkStableAnalyzeNaive, the same role naive_test.go plays in
//     internal/reach and reference_test.go in internal/sim;
//   - the unpruned two-phase frontier round: derive every predecessor of
//     the round's frontier into a round arena, then insert them all in
//     frontier × transition order.
//
// The differential suite proves the core's final antichain equal element
// for element to the seed fixpoint (after canonical sorting; the two insert
// in different orders), and its raw antichain, round count and expansion
// count identical to the unpruned round, on randomized protocols and the
// whole builtin catalog.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/ideal"
	"repro/internal/multiset"
	"repro/internal/protocol"
	"repro/internal/protocols"
)

// referenceBackwardCover is the seed fixpoint, verbatim (modulo the naive
// antichain type): every round clones the full minimal basis and re-derives
// the predecessors of every element.
func referenceBackwardCover(p *protocol.Protocol, b int, maxBasis int, stop <-chan struct{}) (*ideal.NaiveUpSet, int, error) {
	d := p.NumStates()
	u := ideal.NewNaiveUpSet(d)
	for q := 0; q < d; q++ {
		if p.Output(protocol.State(q)) != b {
			u.Add(multiset.Unit(d, q))
		}
	}
	pres := make([]multiset.Vec, p.NumTransitions())
	for t := 0; t < p.NumTransitions(); t++ {
		tr := p.Transition(t)
		pres[t] = multiset.Pair(d, int(tr.P), int(tr.Q))
	}
	iters := 0
	for {
		iters++
		grew := false
		basis := u.MinBasis()
		for k, m := range basis {
			if k&1023 == 0 && stop != nil {
				select {
				case <-stop:
					return nil, iters, ErrInterrupted
				default:
				}
			}
			for t := 0; t < p.NumTransitions(); t++ {
				delta := p.Displacement(t)
				if delta.IsZero() {
					continue
				}
				pre := m.Sub(delta).Clip().Max(pres[t])
				if u.Add(pre) {
					grew = true
				}
			}
		}
		if u.Size() > maxBasis {
			return nil, iters, fmt.Errorf("%w: %d elements", ErrBasisTooLarge, u.Size())
		}
		if !grew {
			return u, iters, nil
		}
	}
}

// referenceAnalysis is the full seed analysis: reference fixpoint plus the
// retained naive complementation.
type referenceAnalysis struct {
	unstable [2]*ideal.NaiveUpSet
	sc       [2]*ideal.DownSet
	iters    [2]int
}

func referenceAnalyze(p *protocol.Protocol, maxBasis int) (*referenceAnalysis, error) {
	if maxBasis <= 0 {
		maxBasis = 200_000
	}
	a := &referenceAnalysis{}
	for b := 0; b <= 1; b++ {
		u, iters, err := referenceBackwardCover(p, b, maxBasis, nil)
		if err != nil {
			return nil, err
		}
		a.unstable[b] = u
		a.iters[b] = iters
		a.sc[b] = ideal.NaiveComplementUp(u)
	}
	return a, nil
}

// canonicalKeys renders an antichain in the canonical sorted-key format
// used for element-for-element comparison across cores.
func canonicalKeys(basis []multiset.Vec) []string {
	keys := make([]string, len(basis))
	for i, m := range basis {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return keys
}

// rawKeys renders an antichain in its own element order, for the
// order-exact comparison against the unpruned round.
func rawKeys(basis []multiset.Vec) []string {
	keys := make([]string, len(basis))
	for i, m := range basis {
		keys[i] = m.Key()
	}
	return keys
}

func keysEqual(a, b []string) bool {
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

// idealKeys renders a DownSet decomposition canonically (cap vectors are
// int64 slices, so the multiset key format applies).
func idealKeys(ds *ideal.DownSet) []string {
	ids := ds.Ideals()
	keys := make([]string, len(ids))
	for i, id := range ids {
		caps := make(multiset.Vec, id.Dim())
		for j := range caps {
			caps[j] = id.Cap(j)
		}
		keys[i] = caps.Key()
	}
	sort.Strings(keys)
	return keys
}

// randomProtocol builds a random single-input protocol: 2–5 states with
// random outputs, a random set of non-identity transitions, completed with
// identity interactions (the generator internal/reach's differential suite
// uses).
func randomProtocol(rng *rand.Rand) *protocol.Protocol {
	k := 2 + rng.Intn(4)
	b := protocol.NewBuilder(fmt.Sprintf("random-%d", k))
	states := make([]protocol.State, k)
	for i := range states {
		states[i] = b.AddState(fmt.Sprintf("q%d", i), rng.Intn(2))
	}
	m := 1 + rng.Intn(2*k)
	for i := 0; i < m; i++ {
		b.AddTransition(
			states[rng.Intn(k)], states[rng.Intn(k)],
			states[rng.Intn(k)], states[rng.Intn(k)],
		)
	}
	b.AddInput("x", states[rng.Intn(k)])
	return b.CompleteWithIdentity().MustBuild()
}

// unprunedBackwardCover is the frontier-driven fixpoint as it was before
// rows that cannot lower an element were skipped: each round derives the
// predecessor of every (live frontier element, transition) pair into a
// round arena, then inserts them all in frontier × transition order.
func unprunedBackwardCover(p *protocol.Protocol, b int) (*ideal.UpSet, int, int) {
	u, frontier := seedGenerators(p, b)
	rows := newPredTable(p).rows
	d := u.Dim()
	var (
		iters, expanded int
		roundF          []int32
		preds           []int64
	)
	for len(frontier) > 0 {
		iters++
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
		preds = make([]int64, len(roundF)*len(rows)*d)
		for fi, id := range roundF {
			m := u.At(int(id))
			for ti := range rows {
				k := fi*len(rows) + ti
				predInto(preds[k*d:(k+1)*d], m, &rows[ti])
			}
		}
		frontier = frontier[:0]
		for k := 0; k < len(roundF)*len(rows); k++ {
			if id, grew := u.Insert(preds[k*d : (k+1)*d]); grew {
				frontier = append(frontier, int32(id))
			}
		}
	}
	if iters == 0 {
		iters = 1
	}
	return u, iters, expanded
}

// compareUnpruned fails unless backwardCover reproduces the unpruned round
// exactly for both outputs: the raw (pre-canonical) antichain in element
// order, the round count and the expanded-frontier count.
func compareUnpruned(t *testing.T, label string, p *protocol.Protocol) {
	t.Helper()
	for b := 0; b <= 1; b++ {
		want, wantIters, wantExpanded := unprunedBackwardCover(p, b)
		got, iters, expanded, err := backwardCover(p, newPredTable(p), b, 200_000, nil)
		if err != nil {
			t.Fatalf("%s: backwardCover(%d): %v", label, b, err)
		}
		if !keysEqual(rawKeys(got.MinBasis()), rawKeys(want.MinBasis())) {
			t.Fatalf("%s: U_%d differs from the unpruned round in raw order (sizes %d vs %d):\n got %s\nwant %s",
				label, b, got.Size(), want.Size(), got, want)
		}
		if iters != wantIters || expanded != wantExpanded {
			t.Fatalf("%s: U_%d counters (%d rounds, %d expanded) differ from the unpruned round (%d, %d)",
				label, b, iters, expanded, wantIters, wantExpanded)
		}
	}
}

// compareCores runs the reference analysis, the unpruned round and the
// production core on one protocol and fails unless every final antichain
// is exactly equal to the reference, every ideal decomposition matches,
// and the production fixpoint is order-exact against the unpruned round.
func compareCores(t *testing.T, label string, p *protocol.Protocol) {
	t.Helper()
	ref, err := referenceAnalyze(p, 0)
	if err != nil {
		t.Fatalf("%s: referenceAnalyze: %v", label, err)
	}
	got, err := Analyze(p, Options{})
	if err != nil {
		t.Fatalf("%s: Analyze: %v", label, err)
	}
	for b := 0; b <= 1; b++ {
		wantU := canonicalKeys(ref.unstable[b].MinBasis())
		gotU := canonicalKeys(got.Unstable(b).MinBasis())
		if !keysEqual(gotU, wantU) {
			t.Fatalf("%s: U_%d differs: %d elements vs reference %d\n got %s\nwant %s",
				label, b, len(gotU), len(wantU), got.Unstable(b), ref.unstable[b])
		}
		if !keysEqual(idealKeys(got.StableSet(b)), idealKeys(ref.sc[b])) {
			t.Fatalf("%s: SC_%d decomposition differs:\n got %s\nwant %s",
				label, b, got.StableSet(b), ref.sc[b])
		}
		if got.Iterations(b) != ref.iters[b] {
			t.Fatalf("%s: iterations(%d) = %d, reference %d", label, b, got.Iterations(b), ref.iters[b])
		}
		if got.FrontierProcessed(b) < got.Unstable(b).Size() {
			t.Fatalf("%s: frontier counter for U_%d is %d, below final basis size %d",
				label, b, got.FrontierProcessed(b), got.Unstable(b).Size())
		}
	}
	compareUnpruned(t, label, p)
}

// TestDifferentialFrontierVsReference is the central differential test of
// the backward-coverability core: on ≥ 50 randomized protocols, its final
// antichains must equal the retained seed fixpoint's element for element,
// and its raw antichains and counters must equal the unpruned round's.
func TestDifferentialFrontierVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		p := randomProtocol(rng)
		compareCores(t, fmt.Sprintf("trial %d (%s)", trial, p.Name()), p)
	}
}

// TestDifferentialBuiltinsVsReference runs the same core comparison over
// every builtin catalog protocol.
func TestDifferentialBuiltinsVsReference(t *testing.T) {
	for name, e := range protocols.Catalog() {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			compareCores(t, name, e.Protocol)
		})
	}
}

// TestPrunedRoundMatchesUnprunedLarger pins the order-exact comparison
// against the unpruned round on fixpoints with thousands of elements and
// many rounds (the randomized protocols above stay small): flock(28) and
// the pinned benchmark workload binary:104.
func TestPrunedRoundMatchesUnprunedLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("large fixpoint")
	}
	for _, e := range []protocols.Entry{protocols.FlockOfBirds(28), protocols.BinaryThreshold(104)} {
		compareUnpruned(t, e.Protocol.Name(), e.Protocol)
	}
	p := protocols.BinaryThreshold(104).Protocol
	u, _, _, err := backwardCover(p, newPredTable(p), 0, 200_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.Size() < 10_000 {
		t.Fatalf("workload too small to be meaningful: |U_0| = %d", u.Size())
	}
}

// lowers is the row filter as the fixpoint first applied it, one row at a
// time: whether m occupies a state the row adds agents to (delta(i) > 0).
// It is the oracle of the per-state row bitsets.
func lowers(row *predRow, m []int64) bool {
	for i, x := range row.delta {
		if x > 0 && m[i] > 0 {
			return true
		}
	}
	return false
}

// visitedRows lists the rows backwardCover visits for m, in the order it
// visits them: the set bits of the union of supp(m)'s row bitsets,
// ascending.
func visitedRows(pt *predTable, m []int64) []int {
	mask := make([]uint64, pt.words)
	pt.lowering(mask, m)
	var out []int
	for k, w := range mask {
		for ; w != 0; w &= w - 1 {
			out = append(out, k<<6|bits.TrailingZeros64(w))
		}
	}
	return out
}

// TestSkippedRowsCannotLower checks the pruning lemma directly, and the
// row bitsets that apply it. For every element m of the computed
// fixpoints (and random vectors), the bitsets must visit exactly the rows
// lowers keeps, in ascending order, and for every row left out the
// predecessor max((m − Δ)⁺, pre) must be ≥ m.
func TestSkippedRowsCannotLower(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(label string, p *protocol.Protocol, elems []multiset.Vec) int {
		pt := newPredTable(p)
		rows := pt.rows
		pred := make([]int64, p.NumStates())
		skipped := 0
		for _, m := range elems {
			var want []int
			for ti := range rows {
				if lowers(&rows[ti], m) {
					want = append(want, ti)
					continue
				}
				skipped++
				predInto(pred, m, &rows[ti])
				if !m.Le(pred) {
					t.Fatalf("%s: row %d skipped for %v, but its predecessor %v is not ≥ it", label, ti, m, pred)
				}
			}
			if got := visitedRows(pt, m); !slices.Equal(got, want) {
				t.Fatalf("%s: the row bitsets visit rows %v for %v, lowers keeps %v", label, got, m, want)
			}
		}
		return skipped
	}
	skipped, multiword := 0, false
	var ps []*protocol.Protocol
	for trial := 0; trial < 40; trial++ {
		ps = append(ps, randomProtocol(rng))
	}
	for _, e := range protocols.Catalog() {
		ps = append(ps, e.Protocol)
	}
	for _, p := range ps {
		a, err := Analyze(p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		elems := append(a.Unstable(0).MinBasis(), a.Unstable(1).MinBasis()...)
		for k := 0; k < 50; k++ {
			v := multiset.New(p.NumStates())
			for i := range v {
				v[i] = int64(rng.Intn(3))
			}
			elems = append(elems, v)
		}
		skipped += check(p.Name(), p, elems)
		multiword = multiword || newPredTable(p).words > 1
	}
	if skipped == 0 {
		t.Fatal("no row was ever skipped: the check is vacuous")
	}
	if !multiword {
		t.Fatal("no protocol has more than 64 rows: the bitsets' word boundary is never crossed")
	}
}
