package engine

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/metrics/testutil"
	"repro/internal/store"
)

// TestLRUHitSurvivesEviction pins the LRU contract: an entry hit just
// before an eviction cycle outlives it, and the cold entry goes instead.
func TestLRUHitSurvivesEviction(t *testing.T) {
	eng := New()
	eng.SetCacheLimit(2)
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:4"}})
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})
	// Touch binary:4 so binary:5 is now the least recently used …
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:4"}})
	// … and let a third protocol force one eviction.
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:6"}})

	_, missesBefore := eng.CacheStats()
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:4"}})
	if _, misses := eng.CacheStats(); misses != missesBefore {
		t.Fatal("just-hit entry was evicted: repeat request missed the cache")
	}
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})
	if _, misses := eng.CacheStats(); misses != missesBefore+1 {
		t.Fatal("least recently used entry was not the one evicted")
	}
}

// TestDiskStoreWarmRestart pins the acceptance criterion: a restarted
// engine (fresh memory cache, same artifact directory) serves its first
// repeated-protocol request from the disk store — no recomputation, and
// the result is bit-identical to the computed one.
func TestDiskStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *Engine {
		eng := New()
		s, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetArtifactStore(s)
		return eng
	}

	first := open()
	resStable := do(t, first, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "majority"}})
	resBasis := do(t, first, Request{Kind: KindBasis, Protocol: ProtocolRef{Spec: "binary:5"}})
	if got := first.Computations(); got != 2 {
		t.Fatalf("cold engine ran %d computations, want 2", got)
	}

	second := open()
	res2 := do(t, second, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "majority"}})
	if got := second.Computations(); got != 0 {
		t.Fatalf("restarted engine recomputed (%d computations) despite disk store", got)
	}
	if !reflect.DeepEqual(res2.Stable, resStable.Stable) {
		t.Fatalf("disk-restored stable result differs:\n%+v\nvs\n%+v", res2.Stable, resStable.Stable)
	}
	res3 := do(t, second, Request{Kind: KindBasis, Protocol: ProtocolRef{Spec: "binary:5"}})
	if got := second.Computations(); got != 0 {
		t.Fatalf("restarted engine recomputed the basis (%d computations)", got)
	}
	if !reflect.DeepEqual(res3.Basis, resBasis.Basis) {
		t.Fatal("disk-restored basis differs from the computed one")
	}
	hits := testutil.ToFloat64(second.ArtifactStore().Metrics().Reads.WithLabelValues("hit"))
	if hits != 2 {
		t.Fatalf("pp_store_reads_total{result=hit} = %v, want 2", hits)
	}
}

// TestCorruptDiskEntryRecomputed pins corruption tolerance end to end: a
// flipped bit on disk must surface as a recomputation, never a wrong
// result, and the store heals.
func TestCorruptDiskEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	eng := New()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetArtifactStore(s)
	want := do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})

	hash := want.Protocol.Hash
	p := filepath.Join(dir, ArtifactStable, hash)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := New()
	fresh.SetArtifactStore(s)
	got := do(t, fresh, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})
	if fresh.Computations() != 1 {
		t.Fatal("corrupt entry was trusted instead of recomputed")
	}
	if !reflect.DeepEqual(got.Stable, want.Stable) {
		t.Fatal("recomputed result differs")
	}
	// The recompute healed the store: one more restart is warm again.
	third := New()
	third.SetArtifactStore(s)
	do(t, third, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:5"}})
	if third.Computations() != 0 {
		t.Fatal("store did not heal after corruption recompute")
	}
}

// TestStoreGCRacingDiskReads is the pressure drill for size governance:
// fresh engines warm from one shared disk store while the GC — budgeted
// below the working set, with deletes failing on a faultinject schedule —
// evicts the same hashes concurrently. Every analysis must come back
// correct (restored or recomputed), and no read may ever surface a torn
// artifact: eviction unlinks whole files, so a racing Get sees either the
// full old bytes or a clean miss.
func TestStoreGCRacingDiskReads(t *testing.T) {
	if err := faultinject.Configure(faultinject.PointStoreDelete + "=every:4"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()

	source := New()
	ss, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	source.SetArtifactStore(ss)
	protos := []string{"majority", "binary:5", "flock:4", "flock:5", "flock:6"}
	want := make(map[string]*Result, len(protos))
	var workingSet int64
	for _, p := range protos {
		want[p] = do(t, source, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: p}})
	}
	if err := filepath.Walk(ss.Dir(), func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			workingSet += info.Size()
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}

	ws, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Budget below the working set: warming all five protocols must force
	// evictions, and every write through evicts inside its Put, racing the
	// other protocols' reads.
	if err := ws.EnableGC(workingSet / 2); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 6; round++ {
		eng := New() // fresh memory cache: every artifact rides the disk path
		eng.SetArtifactStore(ws)
		for _, p := range protos {
			got := do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: p}})
			if !reflect.DeepEqual(got.Stable, want[p].Stable) {
				t.Fatalf("round %d: %s diverged under GC pressure", round, p)
			}
		}
	}
	if v := testutil.ToFloat64(ws.Metrics().GCEvictions); v == 0 {
		t.Fatal("budget below working set but the GC evicted nothing")
	}
	if v := testutil.ToFloat64(ws.Metrics().Reads.WithLabelValues("corrupt")); v != 0 {
		t.Fatalf("eviction churn surfaced %v torn reads, want 0", v)
	}
}
