package stable

import (
	"errors"
	"testing"

	"repro/internal/multiset"
	"repro/internal/protocol"
	"repro/internal/protocols"
	"repro/internal/sim"
	"repro/internal/wordhash"
)

// configIndex maps configurations to dense ids for the brute-force
// propagation: open addressing keyed by the raw-coordinate hash
// (internal/wordhash), the same playbook as the ideal antichain and the
// dioph candidate set — no string keys materialized per configuration.
type configIndex struct {
	configs []multiset.Vec
	slots   []int32 // config id + 1; 0 = empty
	hashes  []uint64
}

func (ix *configIndex) lookup(c multiset.Vec) (int, bool) {
	if len(ix.slots) == 0 {
		return 0, false
	}
	h := wordhash.Sum(c)
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		id := ix.slots[i]
		if id == 0 {
			return 0, false
		}
		if ix.hashes[i] == h && ix.configs[id-1].Equal(c) {
			return int(id - 1), true
		}
	}
}

// add inserts a copy of c (which must not be present) and returns its id.
func (ix *configIndex) add(c multiset.Vec) int {
	if (len(ix.configs)+1)*4 > len(ix.slots)*3 {
		ix.grow()
	}
	ix.configs = append(ix.configs, c.Clone())
	ix.insert(int32(len(ix.configs)), wordhash.Sum(c))
	return len(ix.configs) - 1
}

func (ix *configIndex) insert(idPlus1 int32, h uint64) {
	mask := uint64(len(ix.slots) - 1)
	i := h & mask
	for ix.slots[i] != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = idPlus1
	ix.hashes[i] = h
}

func (ix *configIndex) grow() {
	newCap := 64
	if len(ix.slots) > 0 {
		newCap = len(ix.slots) * 2
	}
	oldSlots, oldHashes := ix.slots, ix.hashes
	ix.slots = make([]int32, newCap)
	ix.hashes = make([]uint64, newCap)
	for i, id := range oldSlots {
		if id != 0 {
			ix.insert(id, oldHashes[i])
		}
	}
}

// bruteStable computes b-stability for every configuration of size s by
// explicit backward propagation over the full size-s configuration space —
// an implementation independent of the symbolic backward coverability, used
// as ground truth. It returns the enumerated configurations and their
// stability flags, index-aligned.
func bruteStable(p *protocol.Protocol, s int64, b int) ([]multiset.Vec, []bool) {
	d := p.NumStates()
	ix := &configIndex{}
	cur := multiset.New(d)
	var rec func(i int, left int64)
	rec = func(i int, left int64) {
		if i == d-1 {
			cur[i] = left
			ix.add(cur)
			cur[i] = 0
			return
		}
		for n := int64(0); n <= left; n++ {
			cur[i] = n
			rec(i+1, left-n)
		}
		cur[i] = 0
	}
	rec(0, s)
	configs := ix.configs

	// bad[i]: configuration covers a state with output ≠ b.
	bad := make([]bool, len(configs))
	for i, c := range configs {
		for q, n := range c {
			if n > 0 && p.Output(protocol.State(q)) != b {
				bad[i] = true
				break
			}
		}
	}
	// canReachBad fixpoint over successors.
	succs := make([][]int, len(configs))
	for i, c := range configs {
		for t := 0; t < p.NumTransitions(); t++ {
			if !p.Enabled(c, t) || p.Displacement(t).IsZero() {
				continue
			}
			j, ok := ix.lookup(c.Add(p.Displacement(t)))
			if !ok {
				panic("bruteStable: successor escaped the size-s slice")
			}
			succs[i] = append(succs[i], j)
		}
	}
	changed := true
	for changed {
		changed = false
		for i := range configs {
			if bad[i] {
				continue
			}
			for _, j := range succs[i] {
				if bad[j] {
					bad[i] = true
					changed = true
					break
				}
			}
		}
	}
	stable := make([]bool, len(configs))
	for i := range configs {
		stable[i] = !bad[i]
	}
	return configs, stable
}

// TestCrossValidateAgainstBruteForce is the central soundness test: the
// symbolic stable sets agree with explicit backward propagation on every
// configuration of every small size, for a spread of zoo protocols.
func TestCrossValidateAgainstBruteForce(t *testing.T) {
	entries := map[string]protocols.Entry{
		"majority":  protocols.Majority(),
		"flock(4)":  protocols.FlockOfBirds(4),
		"succinct2": protocols.Succinct(2),
		"binary(5)": protocols.BinaryThreshold(5),
		"parity":    protocols.Parity(),
		"mod3":      protocols.ModuloIn(3, 1),
		"leader(2)": protocols.LeaderFlock(2),
	}
	for name, e := range entries {
		e := e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := e.Protocol
			a, err := Analyze(p, Options{})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			for s := int64(1); s <= 5; s++ {
				for b := 0; b <= 1; b++ {
					configs, want := bruteStable(p, s, b)
					for i, c := range configs {
						if got := a.IsStable(c, b); got != want[i] {
							t.Fatalf("size %d, b=%d, config %s: symbolic=%t brute=%t",
								s, b, p.FormatConfig(c), got, want[i])
						}
					}
				}
			}
		})
	}
}

func TestMajorityStableSetsExact(t *testing.T) {
	e := protocols.Majority()
	p := e.Protocol
	a, err := Analyze(p, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	A, _ := p.StateByName("A")
	B, _ := p.StateByName("B")
	pa, _ := p.StateByName("a")
	pb, _ := p.StateByName("b")

	// SC_0 is exactly the B/b-only configurations (A and a can never be
	// created from them), SC_1 the A/a-only ones.
	sc0 := a.StableSet(0)
	sc1 := a.StableSet(1)
	mk := func(va, vb, vpa, vpb int64) multiset.Vec {
		c := multiset.New(4)
		c[A], c[B], c[pa], c[pb] = va, vb, vpa, vpb
		return c
	}
	if !sc0.Contains(mk(0, 3, 0, 5)) || sc0.Contains(mk(1, 3, 0, 5)) || sc0.Contains(mk(0, 3, 1, 5)) {
		t.Fatalf("SC_0 wrong: %s", sc0)
	}
	if !sc1.Contains(mk(4, 0, 2, 0)) || sc1.Contains(mk(4, 1, 2, 0)) || sc1.Contains(mk(4, 0, 2, 1)) {
		t.Fatalf("SC_1 wrong: %s", sc1)
	}
	// Norms: both stable sets are "0/ω" boxes, so the measured norm is 0 —
	// astronomically below β(4) (Lemma 3.2 is extremely conservative).
	if a.MeasuredNorm() != 0 {
		t.Fatalf("measured norm = %d, want 0", a.MeasuredNorm())
	}
}

func TestFlockStableSets(t *testing.T) {
	e := protocols.FlockOfBirds(4)
	p := e.Protocol
	a, err := Analyze(p, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	top, _ := p.StateByName("4")
	one, _ := p.StateByName("1")
	allTop := multiset.New(p.NumStates())
	allTop[top] = 3
	if b, ok := a.Classify(allTop); !ok || b != 1 {
		t.Fatalf("all-η must be 1-stable, got %d,%t", b, ok)
	}
	// Value 3 < 4 and no η agent: 0-stable.
	low := multiset.New(p.NumStates())
	low[one] = 3
	if b, ok := a.Classify(low); !ok || b != 0 {
		t.Fatalf("three 1-agents must be 0-stable, got %d,%t", b, ok)
	}
	// Value 4: can still reach η, and covers 0-output states: unstable.
	mid := multiset.New(p.NumStates())
	mid[one] = 4
	if _, ok := a.Classify(mid); ok {
		t.Fatal("four 1-agents are not stable for either output")
	}
	// SC_1 = {configurations populating only η}.
	sc1 := a.StableSet(1)
	if sc1.Size() != 1 {
		t.Fatalf("SC_1 = %s, want a single ideal", sc1)
	}
	id := sc1.Ideals()[0]
	for q := 0; q < p.NumStates(); q++ {
		wantOmega := q == int(top)
		if (id.Cap(q) < 0) != wantOmega {
			t.Fatalf("SC_1 ideal = %s", id)
		}
	}
}

func TestStableDownwardClosed(t *testing.T) {
	// Lemma 3.1: SC_b is downward closed; check via membership on samples.
	e := protocols.BinaryThreshold(5)
	p := e.Protocol
	a, err := Analyze(p, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	ic := p.InitialConfigN(3) // 3 < 5 ⇒ 0-stable region reachable
	if !a.IsStable(ic, 0) {
		t.Fatal("IC(3) should be 0-stable for η=5 (value can never reach 5)")
	}
	smaller := ic.Clone()
	smaller[p.InputState(0)] = 1
	if !a.IsStable(smaller, 0) {
		t.Fatal("downward closure violated")
	}
}

func TestDecomposeStable(t *testing.T) {
	e := protocols.Majority()
	p := e.Protocol
	a, err := Analyze(p, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	B, _ := p.StateByName("B")
	pb, _ := p.StateByName("b")
	c := multiset.New(4)
	c[B], c[pb] = 2, 7
	bb, s, da, ok := a.DecomposeStable(c)
	if !ok {
		t.Fatal("B/b configuration must be stable")
	}
	if !bb.Add(da).Equal(c) {
		t.Fatalf("B + Da = %v ≠ C = %v", bb.Add(da), c)
	}
	if !da.SupportedBy(s.ToMap()) {
		t.Fatalf("Da = %v not supported by S = %v", da, s.Members())
	}
	for i := range bb {
		if s.Test(i) && bb[i] != 0 {
			t.Fatalf("B must vanish on S: %v / %v", bb, s.Members())
		}
	}
	// Unstable configuration: no decomposition.
	A, _ := p.StateByName("A")
	c[A] = 1
	if _, _, _, ok := a.DecomposeStable(c); ok {
		t.Fatal("A+B mix is not stable")
	}
}

func TestBasisElements(t *testing.T) {
	e := protocols.FlockOfBirds(3)
	a, err := Analyze(e.Protocol, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for b := 0; b <= 1; b++ {
		for _, el := range a.Basis(b) {
			if el.Norm() < 0 {
				t.Fatal("negative norm")
			}
			// B must vanish on S.
			for i := range el.B {
				if el.S.Test(i) && el.B[i] != 0 {
					t.Fatalf("B nonzero on S: %v %v", el.B, el.S.Members())
				}
			}
		}
	}
	if len(a.SCBasis()) == 0 {
		t.Fatal("SC has a nonempty basis")
	}
	if a.Iterations(0) < 1 || a.Iterations(1) < 1 {
		t.Fatal("iteration counts must be positive")
	}
}

func TestAnalyzeBasisLimit(t *testing.T) {
	e := protocols.FlockOfBirds(6)
	_, err := Analyze(e.Protocol, Options{MaxBasis: 2})
	if !errors.Is(err, ErrBasisTooLarge) {
		t.Fatalf("want ErrBasisTooLarge, got %v", err)
	}
}

// TestSimWithExactOracle wires the analysis into the simulator: convergence
// is then detected by true stable-set membership rather than silence.
func TestSimWithExactOracle(t *testing.T) {
	e := protocols.Succinct(2) // x ≥ 4
	p := e.Protocol
	a, err := Analyze(p, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, tc := range []struct {
		x    int64
		want int
	}{{4, 1}, {3, 0}, {9, 1}} {
		st, err := sim.Run(p, p.InitialConfigN(tc.x), sim.Options{Seed: 21, Oracle: a})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !st.Converged || st.Output != tc.want {
			t.Fatalf("x=%d: converged=%t output=%d, want %d", tc.x, st.Converged, st.Output, tc.want)
		}
		// The oracle's verdict must agree with the final configuration's
		// actual stability.
		if b, ok := a.Classify(st.Final); !ok || b != tc.want {
			t.Fatalf("final configuration misclassified: %d,%t", b, ok)
		}
	}
}

// The exact oracle can certify convergence before silence: for the flock
// protocol with x < η, the all-zero-value configurations keep churning
// (0,v ↦ 0,v is an identity, but v,w merges still fire) while the output is
// already stably 0. Check the oracle classifies such a configuration early.
func TestOracleBeatsSilence(t *testing.T) {
	e := protocols.FlockOfBirds(9)
	p := e.Protocol
	a, err := Analyze(p, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// IC(5): value 5 < 9; merging continues but stability holds immediately.
	ic := p.InitialConfigN(5)
	if b, ok := a.Classify(ic); !ok || b != 0 {
		t.Fatalf("IC(5) is 0-stable for η=9, got %d,%t", b, ok)
	}
	if _, ok := (sim.Silence{P: p}).Classify(ic); ok {
		t.Fatal("silence oracle should NOT classify IC(5) (merges still enabled)")
	}
}
