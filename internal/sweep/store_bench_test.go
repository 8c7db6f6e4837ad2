package sweep

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
)

// The store-hit/cold pair runs one stable grid, the binary thresholds
// 40..70 (31 cells, one protocol each), two ways: StoreHit on a fresh
// engine over an artifact store that already holds every cell's artifact,
// Cold on a fresh engine with no store. A fresh engine per iteration keeps
// the in-memory cache out of both sides, so the ns/op ratio is what the
// durable store saves a restarted server on a grid it has analyzed before.
const (
	storeBenchFrom = 40
	storeBenchTo   = 70
)

func storeBenchSpec() Spec {
	return Spec{
		Name:      "store-bench",
		Protocols: []ProtocolAxis{{Spec: "binary:{N}"}},
		Params:    []ParamRange{{From: storeBenchFrom, To: storeBenchTo}},
		Kinds:     []engine.Kind{engine.KindStable},
		Options:   Options{Seed: 7},
	}
}

func runStoreBenchSweep(b *testing.B, eng *engine.Engine) {
	b.Helper()
	res, err := Run(context.Background(), eng, storeBenchSpec(), RunOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	if res.Failed != 0 || res.Completed != res.TotalCells {
		b.Fatalf("bad sweep: completed %d/%d, failed %d", res.Completed, res.TotalCells, res.Failed)
	}
}

// BenchmarkSweepStoreHit: every cell is a disk hit. Setup (outside the
// timer) fills the store with one cold run; each iteration reopens it in
// a fresh engine.
func BenchmarkSweepStoreHit(b *testing.B) {
	dir := b.TempDir()
	open := func() *engine.Engine {
		s, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.New()
		eng.SetArtifactStore(s)
		return eng
	}
	runStoreBenchSweep(b, open())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := open()
		runStoreBenchSweep(b, eng)
		if n := eng.Computations(); n != 0 {
			b.Fatalf("%d cells computed; every cell should be a store hit", n)
		}
	}
	b.ReportMetric(storeBenchTo-storeBenchFrom+1, "cells/op")
}

// BenchmarkSweepCold: the same grid with no store, every cell computed.
func BenchmarkSweepCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runStoreBenchSweep(b, engine.New())
	}
	b.ReportMetric(storeBenchTo-storeBenchFrom+1, "cells/op")
}
