package reach

// Benchmarks of the exploration core, mostly on a ≥100k-configuration
// workload (flock(6) from IC(36): 120,036 configurations). The *Naive benchmarks
// run the retained pre-arena core (naive_test.go) and are the "before"
// side of the comparison pinned in BENCH_reach.json; run scripts/bench.sh
// to regenerate it.

import (
	"runtime"
	"testing"

	"repro/internal/multiset"
	"repro/internal/protocols"
)

func benchWorkload() (*protocols.Entry, multiset.Vec) {
	e := protocols.FlockOfBirds(6)
	return &e, e.Protocol.InitialConfigN(36)
}

// BenchmarkExploreArena100k: the arena-backed sequential explorer.
func BenchmarkExploreArena100k(b *testing.B) {
	e, start := benchWorkload()
	p := e.Protocol
	b.ReportAllocs()
	var configs int
	for i := 0; i < b.N; i++ {
		g, err := Explore(p, start, 0)
		if err != nil {
			b.Fatal(err)
		}
		configs = g.Len()
	}
	b.ReportMetric(float64(configs), "configs")
}

// BenchmarkExploreNaive100k: the pre-PR core (string-keyed map dedup,
// per-config allocation) on the same workload.
func BenchmarkExploreNaive100k(b *testing.B) {
	e, start := benchWorkload()
	p := e.Protocol
	b.ReportAllocs()
	var configs int
	for i := 0; i < b.N; i++ {
		g, err := naiveExplore(p, start, 0)
		if err != nil {
			b.Fatal(err)
		}
		configs = len(g.configs)
	}
	b.ReportMetric(float64(configs), "configs")
}

// BenchmarkVerifySweepMix: the verify cells of the perfbench sweep grid —
// flock(N) for N = 4..7, each verified over sizes 2..N−1, 2..N+1 and
// 2..2N: 12 ranges, 76 inputs, 2,993 configurations per op. The graphs are
// small, so this measures the per-input overhead that graph reuse removes.
func BenchmarkVerifySweepMix(b *testing.B) {
	type cell struct {
		e   protocols.Entry
		max int64
	}
	var cells []cell
	for n := int64(4); n <= 7; n++ {
		e := protocols.FlockOfBirds(n)
		for _, max := range []int64{n - 1, n + 1, 2 * n} {
			cells = append(cells, cell{e, max})
		}
	}
	b.ReportAllocs()
	var configs int
	for i := 0; i < b.N; i++ {
		configs = 0
		for _, c := range cells {
			rep, err := VerifyRange(c.e.Protocol, c.e.Pred, 2, c.max, 0)
			if err != nil || !rep.AllOK() {
				b.Fatalf("VerifyRange(%s, 2..%d): %v", c.e.Protocol.Name(), c.max, err)
			}
			configs += rep.TotalConfigs
		}
	}
	b.ReportMetric(float64(configs), "configs")
}

// BenchmarkVerifyAfterLargeExplore: flock(7) verified over 2..14, the
// largest range of BenchmarkVerifySweepMix, timed on a pooled graph. In
// "after-large" the pool holds the graph of an untimed flock(6) IC(36)
// range (120,036 configurations) and every timed range reuses its
// oversized buffers; "steady" warms the pool with the small range itself.
// A reset that cost time in proportion to the buffers' capacity (e.g.
// clearing the whole index table) would separate the two.
func BenchmarkVerifyAfterLargeExplore(b *testing.B) {
	small, large := protocols.FlockOfBirds(7), protocols.FlockOfBirds(6)
	verify := func(b *testing.B, e protocols.Entry, minSize, maxSize int64) int {
		rep, err := VerifyRange(e.Protocol, e.Pred, minSize, maxSize, 0)
		if err != nil || !rep.AllOK() {
			b.Fatalf("VerifyRange(%s, %d..%d): %v", e.Protocol.Name(), minSize, maxSize, err)
		}
		return rep.TotalConfigs
	}
	for _, warm := range []struct {
		name     string
		e        protocols.Entry
		min, max int64
	}{
		{"steady", small, 2, 14},
		{"after-large", large, 36, 36},
	} {
		b.Run(warm.name, func(b *testing.B) {
			// Two collections empty the pool, so the warm-up's graph is the
			// one the timed ranges get.
			runtime.GC()
			runtime.GC()
			verify(b, warm.e, warm.min, warm.max)
			b.ReportAllocs()
			b.ResetTimer()
			var configs int
			for i := 0; i < b.N; i++ {
				configs = verify(b, small, 2, 14)
			}
			b.ReportMetric(float64(configs), "configs")
		})
	}
}

// BenchmarkCoverEarlyExit100k: goal-directed coverability — the BFS stops
// at the first level covering the cap state instead of materializing all
// 120k configurations.
func BenchmarkCoverEarlyExit100k(b *testing.B) {
	e, start := benchWorkload()
	p := e.Protocol
	cap6, ok := p.StateByName("6")
	if !ok {
		b.Fatal("no cap state")
	}
	target := multiset.Unit(p.NumStates(), int(cap6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, found, err := CoverLength(p, start, target, 0)
		if err != nil || !found || l == 0 {
			b.Fatalf("cover = %d,%t,%v", l, found, err)
		}
	}
}

// BenchmarkCoverNaive100k: the pre-PR coverability query — full
// exploration, then a scan over every configuration.
func BenchmarkCoverNaive100k(b *testing.B) {
	e, start := benchWorkload()
	p := e.Protocol
	cap6, ok := p.StateByName("6")
	if !ok {
		b.Fatal("no cap state")
	}
	target := multiset.Unit(p.NumStates(), int(cap6))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := naiveExplore(p, start, 0)
		if err != nil {
			b.Fatal(err)
		}
		l, found := naiveCoverLength(g, target)
		if !found || l == 0 {
			b.Fatalf("cover = %d,%t", l, found)
		}
	}
}

// BenchmarkMaxCoverBoth100k: the engine's cover kind — max shortest
// covering length over every state of both outputs, in one exploration
// (the pre-PR implementation re-explored the graph once per state).
func BenchmarkMaxCoverBoth100k(b *testing.B) {
	e, start := benchWorkload()
	p := e.Protocol
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m1, m0, err := MaxCoverLengthsBothInterruptible(p, start, 0, nil)
		if err != nil || (m1 == 0 && m0 == 0) {
			b.Fatalf("max cover = %d,%d,%v", m1, m0, err)
		}
	}
}
