package reach

import (
	"fmt"

	"repro/internal/multiset"
	"repro/internal/protocol"
)

// CoverLength returns the length of a shortest execution from start to a
// configuration covering target (C ≥ target), or ok = false if no covering
// configuration is reachable. This is the quantity that Rackoff's theorem
// bounds: Lemma 3.2 uses that a covering execution, when one exists, can be
// chosen of length at most β(n) = 2^(2(2n+1)!+1); measuring the true
// shortest lengths on concrete protocols (experiment E11) shows the gap.
//
// The search is breadth-first over the exact configuration graph (fixed
// population size), so the returned length is minimal. It is goal-directed:
// the BFS stops at the first level containing a covering configuration
// instead of materializing the full graph, so a query whose answer lies at
// depth d costs only the graph up to depth d (and can succeed even when the
// full graph would exceed limit).
func CoverLength(p *protocol.Protocol, start protocol.Config, target multiset.Vec, limit int) (int, bool, error) {
	return CoverLengthInterruptible(p, start, target, limit, nil)
}

// CoverLengthInterruptible is CoverLength with cooperative cancellation: it
// aborts with ErrInterrupted soon after the stop channel closes. A nil
// channel disables the checks.
func CoverLengthInterruptible(p *protocol.Protocol, start protocol.Config, target multiset.Vec, limit int, stop <-chan struct{}) (int, bool, error) {
	ls, err := CoverLengthsInterruptible(p, start, []multiset.Vec{target}, limit, stop)
	if err != nil {
		return 0, false, err
	}
	if ls[0] < 0 {
		return 0, false, nil
	}
	return ls[0], true, nil
}

// CoverLengths returns, for every target, the length of a shortest
// execution from start to a configuration covering it, or -1 if no covering
// configuration is reachable. All targets are tracked in one breadth-first
// exploration, which stops early at the first BFS level by which every
// target has been covered.
func CoverLengths(p *protocol.Protocol, start protocol.Config, targets []multiset.Vec, limit int) ([]int, error) {
	return CoverLengthsInterruptible(p, start, targets, limit, nil)
}

// CoverLengthsInterruptible is CoverLengths with cooperative cancellation:
// it aborts with ErrInterrupted soon after the stop channel closes. A nil
// channel disables the checks.
func CoverLengthsInterruptible(p *protocol.Protocol, start protocol.Config, targets []multiset.Vec, limit int, stop <-chan struct{}) ([]int, error) {
	if err := checkStart(p, start); err != nil {
		return nil, err
	}
	for _, target := range targets {
		if target.Dim() != p.NumStates() {
			return nil, fmt.Errorf("reach: target dimension %d, want %d", target.Dim(), p.NumStates())
		}
	}
	lengths := make([]int, len(targets))
	remaining := 0
	for i := range lengths {
		lengths[i] = -1
		remaining++
	}
	// BFS discovers nodes in nondecreasing depth, so the first covering
	// node seen per target is at minimal depth; once every target is
	// covered the exploration stops.
	visit := func(g *Graph, node, depth int32) bool {
		c := g.Config(int(node))
		for i, target := range targets {
			if lengths[i] < 0 && target.Le(c) {
				lengths[i] = int(depth)
				remaining--
			}
		}
		return remaining > 0
	}
	g := pooledGraph(p)
	defer g.release()
	g.reset(start)
	if err := g.explore(limit, stop, visit); err != nil {
		return nil, err
	}
	return lengths, nil
}

// MaxCoverLength returns, over all single-state targets q with output b,
// the largest shortest-covering-execution length from start (0 if no such
// state is coverable). It measures how long the witness executions in the
// stability analysis actually are. All targets are tracked in a single
// exploration.
func MaxCoverLength(p *protocol.Protocol, start protocol.Config, b int, limit int) (int, error) {
	return MaxCoverLengthInterruptible(p, start, b, limit, nil)
}

// MaxCoverLengthInterruptible is MaxCoverLength with cooperative
// cancellation: it aborts with ErrInterrupted soon after the stop channel
// closes. A nil channel disables the checks.
func MaxCoverLengthInterruptible(p *protocol.Protocol, start protocol.Config, b int, limit int, stop <-chan struct{}) (int, error) {
	targets := outputUnitTargets(p, b)
	ls, err := CoverLengthsInterruptible(p, start, targets, limit, stop)
	if err != nil {
		return 0, err
	}
	max := 0
	for _, l := range ls {
		if l > max {
			max = l
		}
	}
	return max, nil
}

// MaxCoverLengthsBothInterruptible computes MaxCoverLength for both outputs
// in one exploration: max1 over output-1 states and max0 over output-0
// states. This is the engine's cover kind in a single BFS.
func MaxCoverLengthsBothInterruptible(p *protocol.Protocol, start protocol.Config, limit int, stop <-chan struct{}) (max1, max0 int, err error) {
	t1 := outputUnitTargets(p, 1)
	t0 := outputUnitTargets(p, 0)
	ls, err := CoverLengthsInterruptible(p, start, append(append([]multiset.Vec{}, t1...), t0...), limit, stop)
	if err != nil {
		return 0, 0, err
	}
	for i, l := range ls {
		switch {
		case i < len(t1) && l > max1:
			max1 = l
		case i >= len(t1) && l > max0:
			max0 = l
		}
	}
	return max1, max0, nil
}

// outputUnitTargets returns the unit multisets {q} for every state q with
// output b.
func outputUnitTargets(p *protocol.Protocol, b int) []multiset.Vec {
	var out []multiset.Vec
	for q := 0; q < p.NumStates(); q++ {
		if p.Output(protocol.State(q)) == b {
			out = append(out, multiset.Unit(p.NumStates(), q))
		}
	}
	return out
}
