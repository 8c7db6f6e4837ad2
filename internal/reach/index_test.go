package reach

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/multiset"
)

// hashFor returns the configuration hash a graph over dim states keys its
// index with (Graph.hash).
func hashFor(dim int) func([]int64) uint64 {
	g := &Graph{coef: hashCoefs(nil, dim)}
	return g.hash
}

// FuzzNodeIndex drives the open-addressing index against a map[string]int32
// oracle keyed by the serialization format (multiset.Vec.Key): every
// lookup must agree with the oracle, and after all inserts every stored
// configuration must still be found under its original id. The passes
// reset store and index in between (as a reused graph does) and check
// that nothing from the pass before is found: the first half of the data,
// then all of it (so the table grows over the first half's stale slots),
// then all of it in reverse order.
func FuzzNodeIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, uint8(4))
	f.Add([]byte{255, 255, 0, 0, 255, 255}, uint8(2))
	f.Add([]byte{7}, uint8(1))
	f.Add([]byte{}, uint8(3))
	big := make([]byte, 600) // 300 distinct 2-vectors: grows the table after a reset
	for i := range big {
		big[i] = byte(i * 37 % 251)
	}
	f.Add(big, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, dimRaw uint8) {
		dim := int(dimRaw%5) + 1
		var vecs [][]int64
		for off := 0; off+dim <= len(data); off += dim {
			c := make([]int64, dim)
			for i := 0; i < dim; i++ {
				c[i] = int64(int8(data[off+i]))
			}
			vecs = append(vecs, c)
		}
		st := &configStore{dim: dim}
		var ix nodeIndex
		hash := hashFor(dim)
		reset := func(prev [][]int64) {
			st.reset()
			ix.reset()
			for _, c := range prev {
				if id, ok := ix.lookup(st, c, hash(c)); ok {
					t.Fatalf("after reset: lookup(%v) = %d, want miss", c, id)
				}
			}
		}
		indexPass(t, st, &ix, vecs[:len(vecs)/2])
		reset(vecs[:len(vecs)/2])
		first := indexPass(t, st, &ix, vecs)
		reset(vecs)
		slices.Reverse(vecs)
		second := indexPass(t, st, &ix, vecs)
		if len(first) != len(second) {
			t.Fatalf("reinsert stored %d configurations, first pass %d", len(second), len(first))
		}
	})
}

// indexPass inserts vecs (skipping duplicates) into an empty store and
// index, checking every lookup against a map oracle, and returns the oracle.
func indexPass(t *testing.T, st *configStore, ix *nodeIndex, vecs [][]int64) map[string]int32 {
	t.Helper()
	oracle := make(map[string]int32)
	hash := hashFor(st.dim)
	for _, c := range vecs {
		key := multiset.Vec(c).Key()
		h := hash(c)
		id, ok := ix.lookup(st, c, h)
		wantID, wantOK := oracle[key]
		if ok != wantOK || (ok && id != wantID) {
			t.Fatalf("lookup(%v) = %d,%t, oracle %d,%t", c, id, ok, wantID, wantOK)
		}
		if !ok {
			nid := st.add(c)
			ix.add(nid, h)
			oracle[key] = nid
		}
	}
	for key, wantID := range oracle {
		c, err := multiset.ParseKey(key, st.dim)
		if err != nil {
			t.Fatalf("ParseKey: %v", err)
		}
		id, ok := ix.lookup(st, c, hash(c))
		if !ok || id != wantID {
			t.Fatalf("final lookup(%v) = %d,%t, oracle %d", c, id, ok, wantID)
		}
	}
	return oracle
}

// TestNodeIndexRandomized exercises table growth and probe chains well past
// the fuzz corpus sizes: 50k random low-entropy vectors (lots of hash
// traffic) against the map oracle.
func TestNodeIndexRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const dim = 6
	st := &configStore{dim: dim}
	var ix nodeIndex
	hash := hashFor(dim)
	oracle := make(map[string]int32)
	c := make([]int64, dim)
	for op := 0; op < 50_000; op++ {
		for i := range c {
			c[i] = int64(rng.Intn(8)) // small counts: realistic configurations
		}
		key := multiset.Vec(c).Key()
		h := hash(c)
		id, ok := ix.lookup(st, c, h)
		wantID, wantOK := oracle[key]
		if ok != wantOK || (ok && id != wantID) {
			t.Fatalf("op %d: lookup(%v) = %d,%t, oracle %d,%t", op, c, id, ok, wantID, wantOK)
		}
		if !ok {
			nid := st.add(c)
			ix.add(nid, h)
			oracle[key] = nid
		}
	}
	if len(oracle) == 0 {
		t.Fatal("no insertions happened")
	}
	// Negative lookups: vectors outside the sampled range must miss.
	for i := range c {
		c[i] = 100 + int64(i)
	}
	if _, ok := ix.lookup(st, c, hash(c)); ok {
		t.Fatalf("lookup(%v) hit, want miss", c)
	}
}

// TestNodeIndexGenerationWrap: when the 32-bit generation wraps, reset
// must clear the table, or slots written 2^32 resets earlier would look
// current again.
func TestNodeIndexGenerationWrap(t *testing.T) {
	st := &configStore{dim: 2}
	var ix nodeIndex
	hash := hashFor(2)
	old := [][]int64{{1, 2}, {3, 4}, {5, 6}}
	indexPass(t, st, &ix, old)
	ix.gen = math.MaxUint32 // as after 2^32−2 resets that never touched these slots
	st.reset()
	ix.reset()
	for _, c := range old {
		if id, ok := ix.lookup(st, c, hash(c)); ok {
			t.Fatalf("after wrap: lookup(%v) = %d, want miss", c, id)
		}
	}
	indexPass(t, st, &ix, [][]int64{{3, 4}, {7, 8}})
}

// TestConfigHashDistribution sanity-checks that distinct small vectors do
// not collide in practice (the index handles collisions, but the quality
// of the configuration hash is what keeps probes short).
func TestConfigHashDistribution(t *testing.T) {
	seen := make(map[uint64][]int64)
	hash := hashFor(3)
	c := []int64{0, 0, 0}
	for a := int64(0); a < 16; a++ {
		for b := int64(0); b < 16; b++ {
			for d := int64(0); d < 16; d++ {
				c[0], c[1], c[2] = a, b, d
				h := hash(c)
				if prev, ok := seen[h]; ok {
					t.Fatalf("collision: %v and %v both hash to %#x", prev, c, h)
				}
				seen[h] = append([]int64(nil), c...)
			}
		}
	}
}

// TestIncrementalHashMatchesFromScratch: on random protocols, for every
// explored node and every transition enabled there, the enabled list is
// the protocol's own (identities dropped, ascending), the incremental
// successor hash fmix64(raw(head) + Δ[t]) equals the from-scratch hash of
// the fired configuration, and that configuration is indexed under it.
func TestIncrementalHashMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sortedPairs := 0 // protocols whose pair order is transition order (no sort)
	for trial := 0; trial < 80; trial++ {
		p := randomProtocolInputs(rng, 1+trial%2)
		v := make(multiset.Vec, p.NumInputs())
		for i := range v {
			v[i] = int64(1 + rng.Intn(4))
		}
		g, err := Explore(p, p.InitialConfig(v), 0)
		if err != nil {
			t.Fatalf("trial %d: Explore: %v", trial, err)
		}
		if g.pairSorted {
			sortedPairs++
		}
		compact := make(map[int]int32) // protocol index → compact index
		for i, tr := range g.trans {
			compact[int(tr.idx)] = int32(i)
		}
		for i := 0; i < g.Len(); i++ {
			c := g.Config(i)
			var want []int32
			for _, ti := range p.EnabledTransitions(c) {
				if k, ok := compact[ti]; ok {
					want = append(want, k)
				}
			}
			got := g.enabledAt(c)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d node %d: enabled %v, want %v", trial, i, got, want)
			}
			raw := rawHash(g.coef, c)
			for _, k := range got {
				succ := p.Fire(c, int(g.trans[k].idx))
				h := g.hash(succ)
				if inc := fmix64(raw + g.trans[k].delta); inc != h {
					t.Fatalf("trial %d node %d transition %d: incremental hash %#x, from scratch %#x",
						trial, i, g.trans[k].idx, inc, h)
				}
				if _, ok := g.idx.lookup(&g.store, succ, h); !ok {
					t.Fatalf("trial %d node %d: successor %v not indexed under its hash", trial, i, succ)
				}
			}
		}
	}
	if sortedPairs == 0 || sortedPairs == 80 {
		t.Fatalf("%d of 80 protocols list transitions in pair order; want both kinds", sortedPairs)
	}
}
