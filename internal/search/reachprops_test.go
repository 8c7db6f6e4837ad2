package search

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/protocol"
	"repro/internal/reach"
)

// randomProtocol draws a deterministic leaderless protocol uniformly from
// the 2- or 3-state enumeration space.
func randomProtocol(rr *rand.Rand, n int) *protocol.Protocol {
	target := rr.Intn(200) // sample index within a prefix of the space
	var picked *protocol.Protocol
	i := 0
	EnumerateDeterministic(n, func(p *protocol.Protocol) bool {
		if i == target {
			picked = p
			return false
		}
		i++
		return true
	})
	if picked == nil {
		// Space smaller than target: take the last one enumerated.
		EnumerateDeterministic(n, func(p *protocol.Protocol) bool {
			picked = p
			return true
		})
	}
	return picked
}

// TestQuickRandomProtocolGraphInvariants: structural invariants of exact
// exploration hold on arbitrary protocols, not just the curated zoo:
// population size is conserved along every edge, every non-bottom SCC has an
// edge out, and b-stable flags are closed under successors.
func TestQuickRandomProtocolGraphInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(2)
		p := randomProtocol(rr, n)
		input := int64(2 + rr.Intn(5))
		g, err := reach.Explore(p, p.InitialConfigN(input), 0)
		if err != nil {
			return false
		}
		size := g.Start().Size()
		for i := 0; i < g.Len(); i++ {
			if g.Config(i).Size() != size {
				return false
			}
			for _, w := range g.Succs(i) {
				if int(w) < 0 || int(w) >= g.Len() {
					return false
				}
			}
		}
		info := g.SCCs()
		for c := 0; c < info.NumComps; c++ {
			hasExit := false
			for _, v := range info.Members[c] {
				for _, w := range g.Succs(int(v)) {
					if info.Comp[w] != int32(c) {
						hasExit = true
					}
				}
			}
			if info.Bottom[c] == hasExit {
				return false // Bottom iff no exit
			}
		}
		for b := 0; b <= 1; b++ {
			flags := g.StableFlags(b)
			for i, ok := range flags {
				if !ok {
					continue
				}
				if ob, def := p.OutputOf(g.Config(i)); !def || ob != b {
					return false
				}
				for _, w := range g.Succs(i) {
					if !flags[w] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
