package sweep

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/metrics/testutil"
)

// TestSweepVerdictTable runs the benchmark's sweep grid (flock:N for N in
// 4..7, simulated and verified at sizes N−1, N+1 and 2N, plus its stable
// analysis) twice through one engine. Its 12 verify cells check 76 inputs,
// 40 of them distinct. With the cells serialized, the first run explores
// each distinct input once and reads the other 36 from the protocol's
// verdict table; the second run explores nothing and every verify cell is
// a cache hit.
func TestSweepVerdictTable(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"name":"verdicts","protocols":[{"spec":"flock:{N}"}],"params":[{"from":4,"to":7}],` +
		`"kinds":["simulate","verify","stable"],"sizes":["{N}-1","{N}+1","{N}*2"],"options":{"seed":7,"runs":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	inputs := func() (table, explored int) {
		v := eng.Metrics().VerifyInputs
		return int(testutil.ToFloat64(v.WithLabelValues("table"))), int(testutil.ToFloat64(v.WithLabelValues("explored")))
	}
	for run, want := range [][2]int{{36, 40}, {76 + 36, 40}} {
		res, err := Pipeline(context.Background(), spec, Pool{Engine: eng, Workers: 1}, nil, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 28 || res.Failed != 0 {
			t.Fatalf("run %d: %d of %d cells completed, %d failed", run, res.Completed, res.TotalCells, res.Failed)
		}
		if table, explored := inputs(); table != want[0] || explored != want[1] {
			t.Fatalf("run %d: %d table and %d explored inputs so far, want %d and %d", run, table, explored, want[0], want[1])
		}
		if run == 1 {
			if hits := res.ByKind[engine.KindVerify].CacheHits; hits != 12 {
				t.Fatalf("second run: %d of 12 verify cells were cache hits", hits)
			}
		}
	}
}
