package reach

import (
	"errors"
	"testing"

	"repro/internal/multiset"
	"repro/internal/pred"
	"repro/internal/protocol"
	"repro/internal/protocols"
)

// oscillator is a protocol whose two configurations of size 2 alternate
// between outputs, so fair executions never stabilise.
func oscillator(t testing.TB) *protocol.Protocol {
	t.Helper()
	b := protocol.NewBuilder("oscillator")
	u := b.AddState("u", 0)
	v := b.AddState("v", 1)
	b.AddTransition(u, u, v, v)
	b.AddTransition(v, v, u, u)
	b.AddInput("x", u)
	return b.CompleteWithIdentity().MustBuild()
}

func TestExploreBasics(t *testing.T) {
	e := protocols.Succinct(2) // states 0, 1, 2, 4; computes x ≥ 4
	p := e.Protocol
	g, err := Explore(p, p.InitialConfigN(4), 0)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if g.Len() < 4 {
		t.Fatalf("graph too small: %d", g.Len())
	}
	if !g.Start().Equal(p.InitialConfigN(4)) {
		t.Fatal("start configuration mismatch")
	}
	// The all-2^2 configuration must be reachable (4 ones merge pairwise).
	top, _ := p.StateByName("2^2")
	final := multiset.New(p.NumStates())
	final[top] = 4
	idx, ok := g.IndexOf(final)
	if !ok {
		t.Fatal("all-top configuration unreachable")
	}
	// Path replay reproduces it exactly.
	steps := g.Path(idx)
	got, err := ReplayPath(p, g.Start(), steps, g)
	if err != nil {
		t.Fatalf("ReplayPath: %v", err)
	}
	if !got.Equal(final) {
		t.Fatalf("replay = %v, want %v", got, final)
	}
	// Corrupting the path must be detected.
	if len(steps) > 0 {
		bad := append([]Step(nil), steps...)
		bad[0].Transition = p.NumTransitions() + 5
		if _, err := ReplayPath(p, g.Start(), bad, g); err == nil {
			t.Fatal("corrupted path should fail replay")
		}
	}
}

func TestExploreLimit(t *testing.T) {
	e := protocols.FlockOfBirds(5)
	p := e.Protocol
	_, err := Explore(p, p.InitialConfigN(8), 3)
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("want ErrLimitExceeded, got %v", err)
	}
}

func TestExploreInterrupt(t *testing.T) {
	e := protocols.FlockOfBirds(6)
	p := e.Protocol
	stop := make(chan struct{})
	close(stop)
	if _, err := ExploreInterruptible(p, p.InitialConfigN(30), 0, stop); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
}

func TestExploreDimensionMismatch(t *testing.T) {
	e := protocols.FlockOfBirds(3)
	if _, err := Explore(e.Protocol, multiset.New(1), 0); err == nil {
		t.Fatal("want dimension error")
	}
}

func TestFairOutputMajority(t *testing.T) {
	e := protocols.Majority()
	p := e.Protocol
	tests := []struct {
		a, b int64
		want int
	}{
		{3, 2, 1},
		{2, 3, 0},
		{2, 2, 0}, // tie resolves to 0 (x_A > x_B is false)
		{5, 1, 1},
		{1, 5, 0},
	}
	for _, tc := range tests {
		g, err := Explore(p, p.InitialConfig(multiset.Vec{tc.a, tc.b}), 0)
		if err != nil {
			t.Fatalf("Explore(%d,%d): %v", tc.a, tc.b, err)
		}
		got, ok := g.FairOutput()
		if !ok || got != tc.want {
			t.Errorf("majority(%d,%d): fair output %d,%t, want %d", tc.a, tc.b, got, ok, tc.want)
		}
	}
}

func TestFairOutputUndefinedOnOscillator(t *testing.T) {
	p := oscillator(t)
	g, err := Explore(p, p.InitialConfigN(2), 0)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if _, ok := g.FairOutput(); ok {
		t.Fatal("oscillator must have no stable fair output")
	}
	// And no stable configurations at all.
	if got := g.StableConfigs(0); len(got) != 0 {
		t.Fatalf("oscillator has no 0-stable configs, got %v", got)
	}
	if got := g.StableConfigs(1); len(got) != 0 {
		t.Fatalf("oscillator has no 1-stable configs, got %v", got)
	}
	if _, _, ok := g.FirstStable(); ok {
		t.Fatal("FirstStable should fail on oscillator")
	}
}

func TestStableFlags(t *testing.T) {
	e := protocols.Majority()
	p := e.Protocol
	// Input (2,1): A majority; all fair executions stabilise to 1.
	g, err := Explore(p, p.InitialConfig(multiset.Vec{2, 1}), 0)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	s1 := g.StableFlags(1)
	s0 := g.StableFlags(0)
	idx, b, ok := g.FirstStable()
	if !ok || b != 1 {
		t.Fatalf("FirstStable = %d,%d,%t; want a 1-stable config", idx, b, ok)
	}
	// A 1-stable config must have output 1 and all successors 1-stable.
	for i := range s1 {
		if !s1[i] {
			continue
		}
		if ob, ok := p.OutputOf(g.Config(i)); !ok || ob != 1 {
			t.Fatalf("1-stable config %s has output %d,%t", p.FormatConfig(g.Config(i)), ob, ok)
		}
		for _, w := range g.Succs(i) {
			if !s1[w] {
				t.Fatal("successor of 1-stable config must be 1-stable")
			}
		}
	}
	// Nothing can be both 0-stable and 1-stable.
	for i := range s0 {
		if s0[i] && s1[i] {
			t.Fatal("config stable for both outputs")
		}
	}
	// The initial configuration contains A and B: output undefined ⇒ not stable.
	if s0[0] || s1[0] {
		t.Fatal("IC(2,1) must not be stable")
	}
}

// TestCatalogExhaustive is the central correctness test of the zoo: every
// catalog protocol computes its declared predicate for all inputs up to a
// per-entry bound, verified exactly via bottom-SCC analysis.
func TestCatalogExhaustive(t *testing.T) {
	for name, e := range protocols.Catalog() {
		e := e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			maxIn := e.MaxExactInput
			if maxIn > 9 {
				maxIn = 9
			}
			rep, err := VerifyRange(e.Protocol, e.Pred, 2, maxIn, 0)
			if err != nil {
				t.Fatalf("VerifyRange: %v", err)
			}
			if !rep.AllOK() {
				t.Fatalf("verification failed:\n%s", rep.String())
			}
		})
	}
}

// TestThresholdProtocolsLargerInputs pushes the threshold families a bit
// beyond the catalog bound to catch boundary errors around η.
func TestThresholdProtocolsLargerInputs(t *testing.T) {
	cases := []struct {
		name string
		e    protocols.Entry
		eta  int64
		max  int64
	}{
		{"flock(5)", protocols.FlockOfBirds(5), 5, 11},
		{"succinct(3)", protocols.Succinct(3), 8, 11},
		{"binary(5)", protocols.BinaryThreshold(5), 5, 11},
		{"binary(11)", protocols.BinaryThreshold(11), 11, 13},
		{"leader-flock(4)", protocols.LeaderFlock(4), 4, 10},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			eta, found, err := ThresholdWitness(tc.e.Protocol, tc.max, 0)
			if err != nil {
				t.Fatalf("ThresholdWitness: %v", err)
			}
			if tc.eta > tc.max {
				if found {
					t.Fatalf("found spurious threshold %d", eta)
				}
				return
			}
			if !found || eta != tc.eta {
				t.Fatalf("threshold = %d (found=%t), want %d", eta, found, tc.eta)
			}
		})
	}
}

func TestThresholdWitnessRejectsNonThreshold(t *testing.T) {
	// Parity is not monotone: output flips at every input.
	e := protocols.Parity()
	if _, _, err := ThresholdWitness(e.Protocol, 6, 0); err == nil {
		t.Fatal("parity should be rejected as a threshold protocol")
	}
	// Multi-input protocols are rejected.
	if _, _, err := ThresholdWitness(protocols.Majority().Protocol, 5, 0); err == nil {
		t.Fatal("majority should be rejected (two inputs)")
	}
}

func TestVerifyRangeArityMismatch(t *testing.T) {
	e := protocols.Majority()
	if _, err := VerifyRange(e.Protocol, pred.NewCounting(3), 2, 4, 0); err == nil {
		t.Fatal("want arity mismatch error")
	}
}

func TestVerifyInputReportsMismatch(t *testing.T) {
	// Claim flock(5) computes x ≥ 4: must fail on input 4.
	e := protocols.FlockOfBirds(5)
	res, err := VerifyInput(e.Protocol, pred.NewCounting(4), multiset.Vec{4}, 0)
	if err != nil {
		t.Fatalf("VerifyInput: %v", err)
	}
	if res.OK {
		t.Fatal("flock(5) does not compute x ≥ 4; verification should fail")
	}
	if res.Got != 0 || !res.Want {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestEnumerate(t *testing.T) {
	tests := []struct {
		d    int
		s    int64
		want int
	}{
		{1, 5, 1},
		{2, 3, 4}, // (0,3) (1,2) (2,1) (3,0)
		{3, 2, 6}, // C(4,2)
		{2, 0, 1}, // (0,0)
		{0, 3, 0},
	}
	for _, tc := range tests {
		got := enumerate(tc.d, tc.s)
		if len(got) != tc.want {
			t.Errorf("enumerate(%d,%d) has %d elements, want %d", tc.d, tc.s, len(got), tc.want)
		}
		for _, v := range got {
			if v.Size() != tc.s || v.Dim() != tc.d {
				t.Errorf("enumerate(%d,%d) produced %v", tc.d, tc.s, v)
			}
		}
	}
}

func TestCoveringConfigs(t *testing.T) {
	e := protocols.Succinct(2)
	p := e.Protocol
	g, err := Explore(p, p.InitialConfigN(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	top, _ := p.StateByName("2^2")
	target := multiset.New(p.NumStates())
	target[top] = 1
	if len(g.CoveringConfigs(target)) == 0 {
		t.Fatal("input 4 must reach a configuration covering 2^2")
	}
	target[top] = 5
	if len(g.CoveringConfigs(target)) != 0 {
		t.Fatal("only 4 agents exist; covering 5·2^2 is impossible")
	}
}

func TestReportString(t *testing.T) {
	e := protocols.FlockOfBirds(3)
	rep, err := VerifyRange(e.Protocol, pred.NewCounting(2), 2, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AllOK() {
		t.Fatal("flock(3) does not compute x ≥ 2")
	}
	s := rep.String()
	if s == "" {
		t.Fatal("empty report string")
	}
	if len(rep.Failures()) == 0 {
		t.Fatal("expected failures")
	}
}

func TestSCCsOnChain(t *testing.T) {
	// flock(2) from input 2: {1,1} → {0,2}·wait: 1,1 ↦ 2,2 since 1+1 ≥ 2.
	// So {1:2} → {2:2}, a two-node chain with absorbing end.
	e := protocols.FlockOfBirds(2)
	p := e.Protocol
	g, err := Explore(p, p.InitialConfigN(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	info := g.SCCs()
	if info.NumComps != g.Len() {
		t.Fatalf("chain should have singleton SCCs: %d comps, %d nodes", info.NumComps, g.Len())
	}
	bottoms := 0
	for c := 0; c < info.NumComps; c++ {
		if info.Bottom[c] {
			bottoms++
		}
	}
	if bottoms != 1 {
		t.Fatalf("chain has %d bottom components, want 1", bottoms)
	}
}
