package stable

import (
	"fmt"
	"testing"

	"repro/internal/ideal"
	"repro/internal/protocol"
	"repro/internal/protocols"
)

// equalAnalyses fails the test unless warm and cold expose identical
// antichains element for element — same MinBasis slices in the same order
// for both outputs, same SC basis, same measured norm. This is the
// byte-identity contract of the incremental path: any durable encoding of
// the two analyses serializes to the same bytes.
func equalAnalyses(t *testing.T, label string, warm, cold *Analysis) {
	t.Helper()
	for b := 0; b <= 1; b++ {
		wb := warm.Unstable(b).MinBasis()
		cb := cold.Unstable(b).MinBasis()
		if len(wb) != len(cb) {
			t.Fatalf("%s: U_%d basis size: warm %d, cold %d", label, b, len(wb), len(cb))
		}
		for i := range wb {
			if !wb[i].Equal(cb[i]) {
				t.Fatalf("%s: U_%d element %d: warm %v, cold %v", label, b, i, wb[i], cb[i])
			}
		}
	}
	ws, cs := warm.SCBasis(), cold.SCBasis()
	if len(ws) != len(cs) {
		t.Fatalf("%s: SC basis size: warm %d, cold %d", label, len(ws), len(cs))
	}
	for i := range ws {
		if !ws[i].B.Equal(cs[i].B) || !ws[i].S.Equal(cs[i].S) {
			t.Fatalf("%s: SC basis element %d: warm %v, cold %v", label, i, ws[i], cs[i])
		}
	}
	if wn, cn := warm.MeasuredNorm(), cold.MeasuredNorm(); wn != cn {
		t.Fatalf("%s: measured norm: warm %d, cold %d", label, wn, cn)
	}
}

// warmRamp analyzes a parametric family in ascending parameter order twice
// — cold at every point, and warm-seeded from the previous point's warm
// analysis — and demands element-for-element equality at every step. The
// warm chain seeds from warm results (not cold ones) deliberately: that is
// what the sweep executor does, so drift would compound if it existed.
func warmRamp(t *testing.T, family string, build func(param int64) *protocol.Protocol, lo, hi int64) {
	t.Helper()
	var prev *Analysis
	for eta := lo; eta <= hi; eta++ {
		p := build(eta)
		label := fmt.Sprintf("%s:%d", family, eta)
		cold, err := Analyze(p, Options{})
		if err != nil {
			t.Fatalf("%s: cold analyze: %v", label, err)
		}
		warm, stats, err := AnalyzeWarm(p, Options{}, WarmSeed{Prev: prev})
		if err != nil {
			t.Fatalf("%s: warm analyze: %v", label, err)
		}
		equalAnalyses(t, label, warm, cold)
		if prev != nil && stats.ImportedTotal() > 0 && stats.CertifiedTotal() == 0 {
			// Not a correctness failure, but a family where certification
			// never fires means the delta path degenerates to from-scratch;
			// surface it so the ramp choice gets revisited.
			t.Logf("%s: imported %d candidates, certified none", label, stats.ImportedTotal())
		}
		prev = warm
	}
}

func TestAnalyzeWarmFlockRamp(t *testing.T) {
	warmRamp(t, "flock", func(eta int64) *protocol.Protocol {
		return protocols.FlockOfBirds(eta).Protocol
	}, 2, 12)
}

func TestAnalyzeWarmBinaryRamp(t *testing.T) {
	warmRamp(t, "binary", func(eta int64) *protocol.Protocol {
		return protocols.BinaryThreshold(eta).Protocol
	}, 17, 29)
}

func TestAnalyzeWarmLeaderFlockRamp(t *testing.T) {
	warmRamp(t, "leaderflock", func(eta int64) *protocol.Protocol {
		return protocols.LeaderFlock(eta).Protocol
	}, 2, 9)
}

func TestAnalyzeWarmModuloRamp(t *testing.T) {
	warmRamp(t, "mod", func(m int64) *protocol.Protocol {
		return protocols.ModuloIn(m, 1).Protocol
	}, 2, 8)
}

// TestAnalyzeWarmNoSeed pins the degenerate delta path: an empty WarmSeed
// must behave exactly like Analyze, including the iteration and frontier
// counters (the warm frontier then is exactly the generator frontier).
func TestAnalyzeWarmNoSeed(t *testing.T) {
	p := protocols.FlockOfBirds(6).Protocol
	cold, err := Analyze(p, Options{})
	if err != nil {
		t.Fatalf("cold analyze: %v", err)
	}
	warm, stats, err := AnalyzeWarm(p, Options{}, WarmSeed{})
	if err != nil {
		t.Fatalf("warm analyze: %v", err)
	}
	equalAnalyses(t, "flock:6 no-seed", warm, cold)
	if stats.ImportedTotal() != 0 || stats.CertifiedTotal() != 0 || stats.DroppedTotal() != 0 {
		t.Fatalf("no-seed stats not all zero: %+v", stats)
	}
	for b := 0; b <= 1; b++ {
		if warm.Iterations(b) != cold.Iterations(b) {
			t.Errorf("U_%d iterations: warm %d, cold %d", b, warm.Iterations(b), cold.Iterations(b))
		}
		if warm.FrontierProcessed(b) != cold.FrontierProcessed(b) {
			t.Errorf("U_%d frontier: warm %d, cold %d", b, warm.FrontierProcessed(b), cold.FrontierProcessed(b))
		}
	}
}

// TestAnalyzeWarmUnrelatedSeed seeds flock from majority — disjoint state
// names, so the mapping drops every element — and from binary — overlapping
// names ("0", "2^k") with different semantics, so certification must weed
// out what the rebase lets through. Both must still land on the cold
// fixpoint exactly.
func TestAnalyzeWarmUnrelatedSeed(t *testing.T) {
	p := protocols.FlockOfBirds(7).Protocol
	cold, err := Analyze(p, Options{})
	if err != nil {
		t.Fatalf("cold analyze: %v", err)
	}
	for _, tc := range []struct {
		name string
		seed *protocol.Protocol
	}{
		{"majority", protocols.Majority().Protocol},
		{"binary:9", protocols.BinaryThreshold(9).Protocol},
		{"flock:3", protocols.FlockOfBirds(3).Protocol},
	} {
		seedA, err := Analyze(tc.seed, Options{})
		if err != nil {
			t.Fatalf("%s: seed analyze: %v", tc.name, err)
		}
		warm, _, err := AnalyzeWarm(p, Options{}, WarmSeed{Prev: seedA})
		if err != nil {
			t.Fatalf("%s: warm analyze: %v", tc.name, err)
		}
		equalAnalyses(t, "flock:7 seeded from "+tc.name, warm, cold)
	}
}

// randomFamily builds a deterministic pseudo-random parametric family:
// member N has N+2 states q0..q(N+1) whose outputs and pairwise transitions
// are drawn from a hash of (seed, state indices) only — NOT of N — so
// adjacent members agree on their shared prefix of states and differ by one
// appended state, the way real template families do. Randomized warm seeds
// then exercise rebase + certification on structure no builtin has.
func randomFamily(seed uint64, n int) *protocol.Protocol {
	mix := func(xs ...uint64) uint64 {
		h := seed ^ 0x9e3779b97f4a7c15
		for _, x := range xs {
			h ^= x
			h *= 0xff51afd7ed558ccd
			h ^= h >> 33
		}
		return h
	}
	d := n + 2
	b := protocol.NewBuilder(fmt.Sprintf("rand(%#x):%d", seed, n))
	states := make([]protocol.State, d)
	for i := 0; i < d; i++ {
		states[i] = b.AddState(fmt.Sprintf("q%d", i), int(mix(uint64(i))&1))
	}
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			h := mix(uint64(i), uint64(j))
			if h&3 == 0 { // quarter of the pairs are inert
				continue
			}
			p2 := int((h >> 2) % uint64(d))
			q2 := int((h >> 17) % uint64(d))
			b.AddTransition(states[i], states[j], states[p2], states[q2])
		}
	}
	b.AddInput("x", states[0])
	return b.CompleteWithIdentity().MustBuild()
}

func TestAnalyzeWarmRandomFamilies(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xdecafbad} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			warmRamp(t, fmt.Sprintf("rand(%#x)", seed), func(n int64) *protocol.Protocol {
				return randomFamily(seed, int(n))
			}, 2, 8)
		})
	}
}

// TestStateMapping pins the name-matching contract: shared names map,
// missing names go to -1, duplicate names abort.
func TestStateMapping(t *testing.T) {
	old := protocols.FlockOfBirds(3).Protocol // states 0..3
	new_ := protocols.FlockOfBirds(5).Protocol
	mapping, ok := StateMapping(old, new_)
	if !ok {
		t.Fatal("flock:3 -> flock:5 mapping reported ambiguous")
	}
	if len(mapping) != old.NumStates() {
		t.Fatalf("mapping length %d, want %d", len(mapping), old.NumStates())
	}
	for q := 0; q < old.NumStates(); q++ {
		if mapping[q] < 0 {
			t.Errorf("state %q unmapped; every flock:3 state name exists in flock:5", old.StateName(protocol.State(q)))
		}
	}
	back, ok := StateMapping(new_, old)
	if !ok {
		t.Fatal("flock:5 -> flock:3 mapping reported ambiguous")
	}
	unmapped := 0
	for _, j := range back {
		if j < 0 {
			unmapped++
		}
	}
	if unmapped != new_.NumStates()-old.NumStates() {
		t.Errorf("flock:5 -> flock:3: %d unmapped states, want %d", unmapped, new_.NumStates()-old.NumStates())
	}
}

// TestWarmSpeedup is the package-level sanity check behind the sweep bench:
// on the binary ramp the warm fixpoint must expand strictly fewer frontier
// elements than the cold one. (The wall-clock claim lives in BENCH_sweep;
// frontier work is the deterministic proxy that cannot flake.)
// TestWarmWorkBounded pins the delta path's work accounting on an adjacent
// binary-threshold pair. On threshold families the basis elements sit
// exactly on the shifting threshold boundary, so warm seeding cannot beat
// the cold frontier count (every element is expanded exactly once either
// way — the measured counts are equal); what the test enforces is that the
// warm schedule never does MORE fixpoint work than cold plus the certified
// seeds it re-expands, that certification actually fires, and that the
// result is still element-for-element identical.
func TestWarmWorkBounded(t *testing.T) {
	prev, err := Analyze(protocols.BinaryThreshold(33).Protocol, Options{})
	if err != nil {
		t.Fatalf("seed analyze: %v", err)
	}
	p := protocols.BinaryThreshold(34).Protocol
	cold, err := Analyze(p, Options{})
	if err != nil {
		t.Fatalf("cold analyze: %v", err)
	}
	warm, stats, err := AnalyzeWarm(p, Options{}, WarmSeed{Prev: prev})
	if err != nil {
		t.Fatalf("warm analyze: %v", err)
	}
	equalAnalyses(t, "binary:34", warm, cold)
	coldWork := cold.FrontierProcessed(0) + cold.FrontierProcessed(1)
	warmWork := warm.FrontierProcessed(0) + warm.FrontierProcessed(1)
	t.Logf("binary:34 frontier work: cold %d, warm %d (imported %d, certified %d, dropped %d)",
		coldWork, warmWork, stats.ImportedTotal(), stats.CertifiedTotal(), stats.DroppedTotal())
	if stats.ImportedTotal() == 0 || stats.CertifiedTotal() == 0 {
		t.Errorf("delta path idle: imported %d, certified %d", stats.ImportedTotal(), stats.CertifiedTotal())
	}
	if warmWork > coldWork+stats.CertifiedTotal() {
		t.Errorf("warm fixpoint expanded %d frontier elements, cold %d + %d certified — overhead beyond the seeds",
			warmWork, coldWork, stats.CertifiedTotal())
	}
	warmIters := warm.Iterations(0) + warm.Iterations(1)
	coldIters := cold.Iterations(0) + cold.Iterations(1)
	if warmIters > coldIters {
		t.Errorf("warm fixpoint ran %d rounds, cold %d — seeding must not add rounds", warmIters, coldIters)
	}
}

// FuzzCertifyByFiring cross-checks the certification filter against its
// defining property on arbitrary candidate vectors: every certified
// candidate must be inside the TRUE U_b (soundness — the filter may only
// admit elements the from-scratch fixpoint derives), and the warm result
// seeded with those candidates must equal the cold result exactly.
func FuzzCertifyByFiring(f *testing.F) {
	f.Add(int64(5), int64(3), uint8(0))
	f.Add(int64(7), int64(2), uint8(1))
	f.Add(int64(4), int64(9), uint8(0))
	f.Fuzz(func(t *testing.T, eta, seedEta int64, b uint8) {
		if eta < 1 || eta > 10 || seedEta < 1 || seedEta > 10 {
			t.Skip()
		}
		bb := int(b & 1)
		p := protocols.FlockOfBirds(eta).Protocol
		cold, err := Analyze(p, Options{})
		if err != nil {
			t.Fatalf("cold analyze: %v", err)
		}
		prev, err := Analyze(protocols.FlockOfBirds(seedEta).Protocol, Options{})
		if err != nil {
			t.Fatalf("seed analyze: %v", err)
		}
		mapping, ok := StateMapping(prev.Protocol(), p)
		if !ok {
			t.Fatal("flock mapping ambiguous")
		}
		candidates := ideal.RebaseBasis(prev.Unstable(bb).MinBasis(), mapping, p.NumStates())
		u, _ := seedGenerators(p, bb)
		rows := predRows(p)
		certifyByFiring(u, rows, candidates, nil)
		truth := cold.Unstable(bb)
		for id := 0; id < u.Stored(); id++ {
			if u.Alive(id) && !truth.Contains(u.At(id)) {
				t.Fatalf("certified element %v outside true U_%d of flock:%d (seed flock:%d)",
					u.At(id), bb, eta, seedEta)
			}
		}
		warm, _, err := AnalyzeWarm(p, Options{}, WarmSeed{Prev: prev})
		if err != nil {
			t.Fatalf("warm analyze: %v", err)
		}
		equalAnalyses(t, fmt.Sprintf("flock:%d seeded flock:%d", eta, seedEta), warm, cold)
	})
}
