package reach

// This file retains the pre-arena exploration core verbatim — string-keyed
// map dedup, a freshly allocated Config per node, [][]int32 successor
// lists, one full re-exploration per coverability target — as a
// differential-testing reference and as the "before" side of the
// BenchmarkExplore*/BenchmarkCover* comparisons. Its fair-output verdict is
// computed by an independent algorithm (pairwise reachability instead of
// Tarjan), so agreement is meaningful.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/multiset"
	"repro/internal/protocol"
)

type naiveGraph struct {
	p          *protocol.Protocol
	configs    []protocol.Config
	index      map[string]int
	succs      [][]int32
	parent     []int32
	parentTran []int32
}

func naiveExplore(p *protocol.Protocol, start protocol.Config, limit int) (*naiveGraph, error) {
	if limit <= 0 {
		limit = 2_000_000
	}
	if start.Dim() != p.NumStates() {
		return nil, fmt.Errorf("reach: start configuration has dimension %d, want %d",
			start.Dim(), p.NumStates())
	}
	g := &naiveGraph{
		p:     p,
		index: make(map[string]int),
	}
	add := func(c protocol.Config, from, tran int32) (int, bool) {
		k := c.Key()
		if i, ok := g.index[k]; ok {
			return i, false
		}
		i := len(g.configs)
		g.configs = append(g.configs, c.Clone())
		g.index[k] = i
		g.succs = append(g.succs, nil)
		g.parent = append(g.parent, from)
		g.parentTran = append(g.parentTran, tran)
		return i, true
	}
	add(start, -1, -1)
	for head := 0; head < len(g.configs); head++ {
		c := g.configs[head]
		next := c.Clone()
		for t := 0; t < p.NumTransitions(); t++ {
			if !p.Enabled(c, t) {
				continue
			}
			d := p.Displacement(t)
			if d.IsZero() {
				continue
			}
			copy(next, c)
			next.AddInPlace(d)
			j, fresh := add(next, int32(head), int32(t))
			if fresh && len(g.configs) > limit {
				return nil, fmt.Errorf("%w: limit %d from %s", ErrLimitExceeded, limit, p.FormatConfig(start))
			}
			dup := false
			for _, s := range g.succs[head] {
				if int(s) == j {
					dup = true
					break
				}
			}
			if !dup && j != head {
				g.succs[head] = append(g.succs[head], int32(j))
			}
		}
	}
	return g, nil
}

// pathLen is the BFS-tree distance of node i from the start.
func (g *naiveGraph) pathLen(i int) int {
	n := 0
	for i != 0 {
		i = int(g.parent[i])
		n++
	}
	return n
}

// naiveCoverLength is the pre-PR coverability query: full exploration, then
// a scan for the closest covering configuration.
func naiveCoverLength(g *naiveGraph, target multiset.Vec) (int, bool) {
	best := -1
	for i, c := range g.configs {
		if !target.Le(c) {
			continue
		}
		if l := g.pathLen(i); best < 0 || l < best {
			best = l
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// fairOutput computes the bottom-SCC consensus verdict by brute force:
// node v lies in a bottom SCC iff everything reachable from v reaches v
// back. Independent of the production Tarjan implementation.
func (g *naiveGraph) fairOutput() (int, bool) {
	n := len(g.configs)
	reachable := make([][]bool, n)
	for v := 0; v < n; v++ {
		seen := make([]bool, n)
		seen[v] = true
		queue := []int32{int32(v)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.succs[u] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		reachable[v] = seen
	}
	result := -1
	for v := 0; v < n; v++ {
		bottom := true
		for u := 0; u < n; u++ {
			if reachable[v][u] && !reachable[u][v] {
				bottom = false
				break
			}
		}
		if !bottom {
			continue
		}
		b, ok := g.p.OutputOf(g.configs[v])
		if !ok {
			return -1, false
		}
		if result == -1 {
			result = b
		} else if result != b {
			return -1, false
		}
	}
	if result == -1 {
		return -1, false
	}
	return result, true
}

// randomProtocol builds a random single-input protocol: 2–5 states with
// random outputs, a random set of non-identity transitions, completed with
// identity interactions.
func randomProtocol(rng *rand.Rand) *protocol.Protocol { return randomProtocolInputs(rng, 1) }

// randomProtocolInputs is randomProtocol with the given number of input
// variables (x, y, ...), each mapped to a random state.
func randomProtocolInputs(rng *rand.Rand, inputs int) *protocol.Protocol {
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
	for x := 0; x < inputs; x++ {
		b.AddInput(string(rune('x'+x)), states[rng.Intn(k)])
	}
	return b.CompleteWithIdentity().MustBuild()
}

// TestDifferentialArenaVsNaive is the central differential test of the
// exploration core: on randomized small protocols, the arena-backed
// explorer — fresh, and reset after exploring a larger input — and the
// retained naive reference must produce the same node set, the same node
// numbering (all explore in (source, transition) discovery order), the
// same BFS distances, the same successor lists, the same bottom-SCC
// verdict, and the same goal-directed cover lengths.
func TestDifferentialArenaVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		p := randomProtocol(rng)
		n := int64(2 + rng.Intn(6))
		start := p.InitialConfigN(n)
		ng, err := naiveExplore(p, start, 0)
		if err != nil {
			t.Fatalf("trial %d: naiveExplore: %v", trial, err)
		}
		ag, err := Explore(p, start, 0)
		if err != nil {
			t.Fatalf("trial %d: Explore: %v", trial, err)
		}
		compareGraphs(t, trial, "arena", ng, ag)
		// A graph that has explored a larger input and computed its SCCs,
		// reset to start: the stale arena, CSR, BFS-tree, index and SCC
		// scratch contents must not leak.
		rg, err := Explore(p, p.InitialConfigN(n+2), 0)
		if err != nil {
			t.Fatalf("trial %d: Explore(%d): %v", trial, n+2, err)
		}
		rg.FairOutput()
		rg.reset(start)
		if err := rg.explore(0, nil, nil); err != nil {
			t.Fatalf("trial %d: reset explore: %v", trial, err)
		}
		compareGraphs(t, trial, "reset", ng, rg)

		// Bottom-SCC verdict: Tarjan on the arena graph vs the brute-force
		// pairwise-reachability verdict on the naive graph.
		nb, nok := ng.fairOutput()
		ab, aok := ag.FairOutput()
		if nb != ab || nok != aok {
			t.Fatalf("trial %d: fair output: naive %d,%t vs arena %d,%t", trial, nb, nok, ab, aok)
		}
		if rb, rok := rg.FairOutput(); nb != rb || nok != rok {
			t.Fatalf("trial %d: fair output: naive %d,%t vs reset %d,%t", trial, nb, nok, rb, rok)
		}

		// Goal-directed cover vs full-exploration-and-scan.
		target := multiset.Unit(p.NumStates(), rng.Intn(p.NumStates()))
		wantLen, wantOK := naiveCoverLength(ng, target)
		gotLen, gotOK, err := CoverLength(p, start, target, 0)
		if err != nil {
			t.Fatalf("trial %d: CoverLength: %v", trial, err)
		}
		if gotOK != wantOK || (gotOK && gotLen != wantLen) {
			t.Fatalf("trial %d: cover length %d,%t, want %d,%t", trial, gotLen, gotOK, wantLen, wantOK)
		}
	}
}

func compareGraphs(t *testing.T, trial int, label string, want *naiveGraph, got *Graph) {
	t.Helper()
	if got.Len() != len(want.configs) {
		t.Fatalf("trial %d %s: %d nodes, want %d", trial, label, got.Len(), len(want.configs))
	}
	for i := range want.configs {
		if !got.Config(i).Equal(want.configs[i]) {
			t.Fatalf("trial %d %s: node %d is %v, want %v (numbering must match)",
				trial, label, i, got.Config(i), want.configs[i])
		}
		if got.Depth(i) != want.pathLen(i) {
			t.Fatalf("trial %d %s: node %d depth %d, want %d", trial, label, i, got.Depth(i), want.pathLen(i))
		}
		gs, ws := got.Succs(i), want.succs[i]
		if len(gs) != len(ws) {
			t.Fatalf("trial %d %s: node %d has succs %v, want %v", trial, label, i, gs, ws)
		}
		for k := range ws {
			if gs[k] != ws[k] {
				t.Fatalf("trial %d %s: node %d has succs %v, want %v", trial, label, i, gs, ws)
			}
		}
		if j, ok := got.IndexOf(want.configs[i]); !ok || j != i {
			t.Fatalf("trial %d %s: IndexOf(node %d) = %d,%t", trial, label, i, j, ok)
		}
	}
}
