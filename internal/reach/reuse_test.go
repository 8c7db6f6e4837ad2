package reach

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/pred"
	"repro/internal/protocol"
	"repro/internal/protocols"
)

// freshReport is the oracle of VerifyRange: a fresh Explore per input, its
// fair output taken from the naive explorer's brute-force bottom-SCC
// verdict, sharing nothing with the reused graph.
func freshReport(t *testing.T, p *protocol.Protocol, phi pred.Pred, minSize, maxSize int64) *Report {
	t.Helper()
	rep := &Report{}
	for s := minSize; s <= maxSize; s++ {
		for _, v := range enumerate(p.NumInputs(), s) {
			ic := p.InitialConfig(v)
			g, err := Explore(p, ic, 0)
			if err != nil {
				t.Fatalf("Explore(%v): %v", v, err)
			}
			ng, err := naiveExplore(p, ic, 0)
			if err != nil {
				t.Fatalf("naiveExplore(%v): %v", v, err)
			}
			if len(ng.configs) != g.Len() {
				t.Fatalf("input %v: naive %d configs, arena %d", v, len(ng.configs), g.Len())
			}
			got, ok := ng.fairOutput()
			want := phi.Eval(v)
			rep.Results = append(rep.Results, Result{
				Input: v, Want: want, Got: got, Configs: g.Len(),
				OK: ok && (got == 1) == want,
			})
			rep.TotalConfigs += g.Len()
		}
	}
	return rep
}

func compareReports(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if got.TotalConfigs != want.TotalConfigs || len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results / %d configs, want %d / %d", label,
			len(got.Results), got.TotalConfigs, len(want.Results), want.TotalConfigs)
	}
	for i, w := range want.Results {
		g := got.Results[i]
		if !g.Input.Equal(w.Input) || g.Want != w.Want || g.Got != w.Got || g.OK != w.OK || g.Configs != w.Configs {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// TestVerifyRangeReuseMatchesFresh: VerifyRange resets one graph for every
// input, so the graph (and its SCC scratch) shrinks as often as it grows —
// between sizes, and with two inputs between the inputs of one size. Every
// Result and the total must equal the fresh-graph oracle.
func TestVerifyRangeReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 60; trial++ {
		inputs := 1 + trial%2
		p := randomProtocolInputs(rng, inputs)
		var phi pred.Pred = pred.NewCounting(int64(2 + rng.Intn(4)))
		if inputs == 2 {
			phi = pred.NewMajority()
		}
		maxSize := int64(3 + rng.Intn(4))
		rep, err := VerifyRange(p, phi, 2, maxSize, 0)
		if err != nil {
			t.Fatalf("trial %d: VerifyRange: %v", trial, err)
		}
		compareReports(t, p.Name(), rep, freshReport(t, p, phi, 2, maxSize))
	}
	for name, e := range protocols.Catalog() {
		maxIn := min(e.MaxExactInput, 6)
		rep, err := VerifyRange(e.Protocol, e.Pred, 2, maxIn, 0)
		if err != nil {
			t.Fatalf("%s: VerifyRange: %v", name, err)
		}
		compareReports(t, name, rep, freshReport(t, e.Protocol, e.Pred, 2, maxIn))
	}
}

// TestResetGraphMatchesFresh: a graph that has explored a larger input and
// computed its SCCs, reset and re-explored, is indistinguishable from a
// fresh Explore: same numbering, depths and successor lists, same fair
// output, same SCC decomposition and stable sets.
func TestResetGraphMatchesFresh(t *testing.T) {
	cases := []struct {
		name  string
		e     protocols.Entry
		input int64
	}{
		{"flock(5)", protocols.FlockOfBirds(5), 9},
		{"succinct(3)", protocols.Succinct(3), 8},
		{"binary(7)", protocols.BinaryThreshold(7), 9},
		{"parity", protocols.Parity(), 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			p := tc.e.Protocol
			fresh, err := Explore(p, p.InitialConfigN(tc.input), 0)
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			g, err := Explore(p, p.InitialConfigN(tc.input+2), 0)
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			g.FairOutput() // grow the SCC scratch on the larger graph
			g.reset(p.InitialConfigN(tc.input))
			if err := g.explore(0, nil, nil); err != nil {
				t.Fatalf("reset explore: %v", err)
			}
			if g.Len() != fresh.Len() {
				t.Fatalf("%d configs, want %d", g.Len(), fresh.Len())
			}
			for i := 0; i < fresh.Len(); i++ {
				if !g.Config(i).Equal(fresh.Config(i)) || g.Depth(i) != fresh.Depth(i) {
					t.Fatalf("node %d: %s at depth %d, want %s at depth %d", i,
						p.FormatConfig(g.Config(i)), g.Depth(i), p.FormatConfig(fresh.Config(i)), fresh.Depth(i))
				}
				if !slices.Equal(g.Succs(i), fresh.Succs(i)) {
					t.Fatalf("node %d succs %v, want %v", i, g.Succs(i), fresh.Succs(i))
				}
			}
			b1, ok1 := fresh.FairOutput()
			b2, ok2 := g.FairOutput()
			if b1 != b2 || ok1 != ok2 {
				t.Fatalf("fair outputs differ: %d,%t vs %d,%t", b2, ok2, b1, ok1)
			}
			gi, fi := g.SCCs(), fresh.SCCs()
			if gi.NumComps != fi.NumComps {
				t.Fatalf("%d components, want %d", gi.NumComps, fi.NumComps)
			}
			for v := range fi.Comp {
				if gi.Comp[v] != fi.Comp[v] {
					t.Fatalf("node %d in component %d, want %d", v, gi.Comp[v], fi.Comp[v])
				}
			}
			for b := 0; b <= 1; b++ {
				if len(g.StableConfigs(b)) != len(fresh.StableConfigs(b)) {
					t.Fatalf("stable-%d counts differ", b)
				}
			}
		})
	}
}

// TestResetGraphDeterministicNumbering: one graph, reset and re-explored on
// the same input after a series of larger, smaller and equal inputs, must
// reproduce the fresh numbering, BFS tree and successor lists bit for bit
// after every reset.
func TestResetGraphDeterministicNumbering(t *testing.T) {
	e := protocols.Succinct(3)
	p := e.Protocol
	seq, err := Explore(p, p.InitialConfigN(9), 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Explore(p, p.InitialConfigN(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, prior := range []int64{12, 4, 9, 10} {
		g.reset(p.InitialConfigN(prior))
		if err := g.explore(0, nil, nil); err != nil {
			t.Fatalf("prior=%d: %v", prior, err)
		}
		g.FairOutput()
		g.reset(p.InitialConfigN(9))
		if err := g.explore(0, nil, nil); err != nil {
			t.Fatalf("after prior=%d: %v", prior, err)
		}
		if g.Len() != seq.Len() {
			t.Fatalf("after prior=%d: %d nodes, want %d", prior, g.Len(), seq.Len())
		}
		for i := 0; i < seq.Len(); i++ {
			if !g.Config(i).Equal(seq.Config(i)) {
				t.Fatalf("after prior=%d: node %d differs", prior, i)
			}
			if g.Depth(i) != seq.Depth(i) {
				t.Fatalf("after prior=%d: node %d depth %d, want %d", prior, i, g.Depth(i), seq.Depth(i))
			}
			if !slices.Equal(g.Succs(i), seq.Succs(i)) {
				t.Fatalf("after prior=%d: node %d succs %v, want %v", prior, i, g.Succs(i), seq.Succs(i))
			}
		}
	}
}

// TestPooledGraphAcrossDimensions: one graph verifies a two-input protocol
// and then protocols of other dimensions (more and fewer states, one
// input), as the pool hands a graph from one range to the next. Every
// report must equal the fresh-graph oracle, and so must the same sequence
// through VerifyRange and its pooled graphs.
func TestPooledGraphAcrossDimensions(t *testing.T) {
	type rangeCase struct {
		p        *protocol.Protocol
		phi      pred.Pred
		min, max int64
	}
	rng := rand.New(rand.NewSource(16))
	two := randomProtocolInputs(rng, 2)
	cases := []rangeCase{
		{two, pred.NewMajority(), 2, 6},
		{protocols.FlockOfBirds(6).Protocol, protocols.FlockOfBirds(6).Pred, 2, 9},
		{protocols.Parity().Protocol, protocols.Parity().Pred, 2, 7},
		{two, pred.NewMajority(), 3, 5},
	}
	g := new(Graph)
	for i, c := range cases {
		want := freshReport(t, c.p, c.phi, c.min, c.max)
		g.bind(c.p)
		rep, err := verifyRange(c.p, c.phi, c.min, c.max, 0, nil, nil, func() *Graph { return g })
		if err != nil {
			t.Fatalf("case %d: verifyRange: %v", i, err)
		}
		compareReports(t, fmt.Sprintf("case %d on one graph", i), rep, want)
		rep, err = VerifyRange(c.p, c.phi, c.min, c.max, 0)
		if err != nil {
			t.Fatalf("case %d: VerifyRange: %v", i, err)
		}
		compareReports(t, fmt.Sprintf("case %d pooled", i), rep, want)
	}
}

// TestPooledGraphAfterInterrupt: a range interrupted in the middle of an
// input's exploration leaves a partial graph (arena, index, CSR, stamps);
// the same graph, rebound and reused, must still match the oracle, for the
// interrupted protocol and for another one.
func TestPooledGraphAfterInterrupt(t *testing.T) {
	flock := protocols.FlockOfBirds(6)
	p := flock.Protocol
	g := new(Graph)
	g.bind(p)
	g.reset(p.InitialConfigN(30))
	stop := make(chan struct{})
	visit := func(_ *Graph, node, _ int32) bool {
		if node == 1500 {
			close(stop)
		}
		return true
	}
	if err := g.explore(0, stop, visit); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("explore: want ErrInterrupted, got %v", err)
	}
	full, err := Explore(p, p.InitialConfigN(30), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() <= 1500 || g.Len() >= full.Len() {
		t.Fatalf("interrupted after %d of %d nodes, want a partial graph past node 1500", g.Len(), full.Len())
	}
	// Through the public entry point: a closed stop channel ends the range
	// before its first exploration completes.
	if _, err := VerifyRangeInterruptible(p, flock.Pred, 2, 12, 0, stop, nil); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("VerifyRangeInterruptible: want ErrInterrupted, got %v", err)
	}
	parity := protocols.Parity()
	for _, c := range []protocols.Entry{flock, parity, flock} {
		want := freshReport(t, c.Protocol, c.Pred, 2, 8)
		g.bind(c.Protocol)
		rep, err := verifyRange(c.Protocol, c.Pred, 2, 8, 0, nil, nil, func() *Graph { return g })
		if err != nil {
			t.Fatalf("%s: verifyRange: %v", c.Protocol.Name(), err)
		}
		compareReports(t, c.Protocol.Name(), rep, want)
		rep, err = VerifyRange(c.Protocol, c.Pred, 2, 8, 0)
		if err != nil {
			t.Fatalf("%s: VerifyRange: %v", c.Protocol.Name(), err)
		}
		compareReports(t, c.Protocol.Name()+" pooled", rep, want)
	}
}

// TestPooledGraphConcurrentRanges: ranges running at once on different
// protocols never share a pooled graph (run under -race in CI).
func TestPooledGraphConcurrentRanges(t *testing.T) {
	entries := []protocols.Entry{
		protocols.FlockOfBirds(4), protocols.FlockOfBirds(6),
		protocols.Succinct(2), protocols.BinaryThreshold(5), protocols.Parity(),
	}
	want := make([]*Report, len(entries))
	for i, e := range entries {
		want[i] = freshReport(t, e.Protocol, e.Pred, 2, 8)
	}
	const workers = 6
	got := make([][]*Report, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for k := range entries {
					e := entries[(k+w)%len(entries)]
					rep, err := VerifyRange(e.Protocol, e.Pred, 2, 8, 0)
					if err != nil {
						errs[w] = err
						return
					}
					got[w] = append(got[w], rep)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for n, rep := range got[w] {
			i := (n%len(entries) + w) % len(entries)
			compareReports(t, fmt.Sprintf("worker %d range %d", w, n), rep, want[i])
		}
	}
}
