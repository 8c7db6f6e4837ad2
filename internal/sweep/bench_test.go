package sweep

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/engine"
)

// benchSpec is a CPU-bound simulate grid of 24 cells. The protocol never
// converges (two states toggling forever), so every cell deterministically
// burns its full interaction budget — per-cell cost is fixed and the
// worker pool, not the channel plumbing, dominates.
func benchSpec(t *testing.B) Spec {
	t.Helper()
	spinner := `{
	  "name": "spinner",
	  "states": [{"name": "a", "output": 0}, {"name": "b", "output": 1}],
	  "transitions": [["a","a","b","b"], ["b","b","a","a"]],
	  "inputs": {"x": "a"},
	  "completeWithIdentity": true
	}`
	spec := Spec{
		Name:      "bench",
		Protocols: []ProtocolAxis{{Inline: []byte(spinner), Label: "spinner"}},
		Kinds:     []engine.Kind{engine.KindSimulate},
		Options:   Options{Seed: 1, MaxSteps: 250_000},
	}
	for n := int64(100); n < 148; n += 2 {
		spec.Sizes = append(spec.Sizes, Lit(n))
	}
	return spec
}

func benchSweep(b *testing.B, workers int) {
	spec := benchSpec(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New() // cold engine: no cross-iteration caching
		res, err := Run(ctx, eng, spec, RunOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != res.TotalCells || res.Failed != 0 {
			b.Fatalf("bad sweep: %+v", res)
		}
	}
	b.ReportMetric(float64(24), "cells/op")
}

// BenchmarkSweepWorkers1 is the serial baseline of the sweep executor.
func BenchmarkSweepWorkers1(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepWorkersMax runs the same grid on a full-width pool; the
// speed-up over BenchmarkSweepWorkers1 pins the executor's scaling.
func BenchmarkSweepWorkersMax(b *testing.B) { benchSweep(b, runtime.GOMAXPROCS(0)) }

// BenchmarkAppendRowGrid encodes the 29 rows a POST /v1/sweep of the
// end-to-end benchmark's grid streams: flock:N for N in 4..7, simulated
// (4 replicas) and verified at sizes N−1, N+1 and 2N, plus its stable
// analysis — 28 cell rows and the summary, which carries no cells. As in
// the server, the cell rows reuse one buffer and the summary gets its own.
func BenchmarkAppendRowGrid(b *testing.B) {
	spec, err := ParseSpec([]byte(`{"name":"sweep-5-0","protocols":[{"spec":"flock:{N}"}],"params":[{"from":4,"to":7}],` +
		`"kinds":["simulate","verify","stable"],"sizes":["{N}-1","{N}+1","{N}*2"],"options":{"seed":5,"runs":4}}`))
	if err != nil {
		b.Fatal(err)
	}
	res, err := Run(context.Background(), engine.New(), spec, RunOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	cells := res.Cells
	res.Cells = nil
	if len(cells) != 28 {
		b.Fatalf("%d cells, want 28", len(cells))
	}
	var row []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cells {
			row = AppendRow(row[:0], StreamRow{Type: "cell", Cell: &cells[j]})
		}
		sink = AppendRow(nil, StreamRow{Type: "summary", Summary: res})
	}
	b.ReportMetric(29, "rows/op")
}

var sink []byte
