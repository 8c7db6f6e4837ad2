package stable

// Benchmarks of the backward-coverability core on a pinned ≥10k-element
// basis workload: binary:104 (BinaryThreshold(104), 10 states, 55
// transitions), whose U_0 fixpoint has 11,538 minimal elements.
// BenchmarkStableAnalyzeNaive runs the retained seed fixpoint
// (reference_test.go) and is the "before" side of the comparison pinned in
// BENCH_stable.json; run scripts/bench.sh stable to regenerate it. The
// seed complementation (ideal.NaiveComplementUp) cannot finish this
// workload at all — its per-element pass re-verifies irredundancy of the
// whole ~10k-ideal decomposition and did not complete within an hour — so
// the naive side borrows the production complementation, which makes the
// reported fixpoint speedup conservative.

import (
	"fmt"
	"testing"

	"repro/internal/ideal"
	"repro/internal/protocol"
	"repro/internal/protocols"
)

// benchProtocol is the pinned workload. Its U_0 basis (11,538 elements)
// is what the ≥10k-element acceptance bar refers to.
func benchProtocol() *protocol.Protocol {
	return protocols.BinaryThreshold(104).Protocol
}

// BenchmarkStableAnalyzeArena: the frontier-driven fixpoint on the
// arena-backed antichain, full analysis (both fixpoints, complementation,
// SC union).
func BenchmarkStableAnalyzeArena(b *testing.B) {
	p := benchProtocol()
	b.ReportAllocs()
	var basis int
	for i := 0; i < b.N; i++ {
		a, err := Analyze(p, Options{})
		if err != nil {
			b.Fatal(err)
		}
		basis = a.Unstable(0).Size()
	}
	if basis < 10_000 {
		b.Fatalf("workload regressed below the pinned size: |U_0| = %d", basis)
	}
	b.ReportMetric(float64(basis), "basis-elements")
}

// BenchmarkStableAnalyzeNaive: the seed analysis — restart-the-whole-basis
// fixpoint over the naive antichain — on the same workload (production
// complementation; see the file comment). Expect minutes per iteration:
// this is the before side.
func BenchmarkStableAnalyzeNaive(b *testing.B) {
	p := benchProtocol()
	b.ReportAllocs()
	var basis int
	for i := 0; i < b.N; i++ {
		var sc [2]*ideal.DownSet
		for out := 0; out <= 1; out++ {
			u, _, err := referenceBackwardCover(p, out, 200_000, nil)
			if err != nil {
				b.Fatal(err)
			}
			if out == 0 {
				basis = u.Size()
			}
			sc[out], _ = ideal.ComplementUp(ideal.NewUpSet(p.NumStates(), u.MinBasis()...), nil)
		}
		sc[0].Union(sc[1])
	}
	b.ReportMetric(float64(basis), "basis-elements")
}

// BenchmarkStableAnalyzeFlock: full analyses of flock(10), flock(11) and
// flock(12), the protocol sizes the end-to-end miss workload sends — small
// fixpoints where complementation and canonicalization weigh as much as
// the rounds.
func BenchmarkStableAnalyzeFlock(b *testing.B) {
	for _, n := range []int64{10, 11, 12} {
		p := protocols.FlockOfBirds(n).Protocol
		b.Run(fmt.Sprintf("flock=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(p, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
