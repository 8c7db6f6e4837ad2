package stable

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols"
)

// TestAnalyzeAllocations guards the allocation count of a full analysis.
// Each ceiling is the measured count (152 for flock(11), 167 for
// binary:40) plus about 10% headroom; a count does not depend on the
// host's speed. Before the fixpoint visited only the rows that can lower
// an element and the complement ran on flat cap arenas, the same analyses
// took 848 and 2062 allocations. A ceiling breaks if per-clone or
// per-element allocation comes back.
func TestAnalyzeAllocations(t *testing.T) {
	for _, c := range []struct {
		p       *protocol.Protocol
		ceiling float64
	}{
		{protocols.FlockOfBirds(11).Protocol, 170},
		{protocols.BinaryThreshold(40).Protocol, 185},
	} {
		got := testing.AllocsPerRun(5, func() {
			if _, err := Analyze(c.p, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.ceiling {
			t.Errorf("%s: Analyze made %.0f allocations, ceiling %.0f", c.p.Name(), got, c.ceiling)
		}
	}
}
