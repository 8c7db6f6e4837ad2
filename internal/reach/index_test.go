package reach

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/multiset"
)

// FuzzNodeIndex drives the open-addressing index against a map[string]int32
// oracle keyed by the serialization format (multiset.Vec.Key): every
// lookup must agree with the oracle, and after all inserts every stored
// configuration must still be found under its original id. A second pass
// resets store and index (as a reused graph does), checks that nothing
// from the first pass is found, and reinserts the data in reverse order.
func FuzzNodeIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, uint8(4))
	f.Add([]byte{255, 255, 0, 0, 255, 255}, uint8(2))
	f.Add([]byte{7}, uint8(1))
	f.Add([]byte{}, uint8(3))
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
		first := indexPass(t, st, &ix, vecs)
		st.reset()
		ix.reset()
		for _, c := range vecs {
			if id, ok := ix.lookup(st, c, hashWords(c)); ok {
				t.Fatalf("after reset: lookup(%v) = %d, want miss", c, id)
			}
		}
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
	for _, c := range vecs {
		key := multiset.Vec(c).Key()
		h := hashWords(c)
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
		id, ok := ix.lookup(st, c, hashWords(c))
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
	oracle := make(map[string]int32)
	c := make([]int64, dim)
	for op := 0; op < 50_000; op++ {
		for i := range c {
			c[i] = int64(rng.Intn(8)) // small counts: realistic configurations
		}
		key := multiset.Vec(c).Key()
		h := hashWords(c)
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
	if _, ok := ix.lookup(st, c, hashWords(c)); ok {
		t.Fatalf("lookup(%v) hit, want miss", c)
	}
}

// TestHashWordsDistribution sanity-checks that distinct small vectors do
// not collide in practice (the index handles collisions, but the quality
// of hashWords is what keeps probes short).
func TestHashWordsDistribution(t *testing.T) {
	seen := make(map[uint64][]int64)
	c := []int64{0, 0, 0}
	for a := int64(0); a < 16; a++ {
		for b := int64(0); b < 16; b++ {
			for d := int64(0); d < 16; d++ {
				c[0], c[1], c[2] = a, b, d
				h := hashWords(c)
				if prev, ok := seen[h]; ok {
					t.Fatalf("collision: %v and %v both hash to %#x", prev, c, h)
				}
				seen[h] = append([]int64(nil), c...)
			}
		}
	}
}
