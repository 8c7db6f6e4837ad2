// Sweep example: the paper's flock-of-birds threshold scaling, x ≥ c for
// c = 2..9, as one declarative scenario sweep.
//
// Example 2.1's flock-of-birds protocol P decides x ≥ c with c+1 states —
// the state-hungry baseline against which the paper's busy beaver bounds
// are measured. The spec file next to this program sweeps c and, per c,
// the populations c−1, c and c+1 (the interesting band around the
// threshold), running two analysis kinds per grid point:
//
//   - verify: exact bottom-SCC verification against counting:{N} up to the
//     population size — the protocol really decides x ≥ c;
//   - simulate: 5 stochastic runs measuring convergence (parallel time).
//
// The same spec runs unchanged via the batch CLI and the HTTP API:
//
//	go run ./cmd/ppsweep -spec examples/sweep/spec.json -format csv
//	curl -sN localhost:8080/v1/sweep --data-binary @examples/sweep/spec.json
//
// Run with: go run ./examples/sweep
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	pp "repro"
)

func main() {
	data, err := os.ReadFile("examples/sweep/spec.json")
	if err != nil {
		// Running from inside the example directory.
		data, err = os.ReadFile("spec.json")
	}
	if err != nil {
		log.Fatal(err)
	}
	spec, err := pp.ParseSweepSpec(data)
	if err != nil {
		log.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sweep %q: %d cells (protocol × population × kind grid)\n\n", spec.Name, len(cells))

	// Execute on a worker pool; cells stream back in grid order.
	res, err := pp.Sweep(context.Background(), pp.NewEngine(), spec, pp.SweepRunOptions{
		OnCell: func(cr pp.SweepCellResult) {
			fmt.Printf("  cell %2d %-9s size=%-2d %-8s ok=%t (%.1f ms)\n",
				cr.Index, cr.Protocol, cr.Size, cr.Kind, cr.OK, cr.ElapsedMillis)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Reassemble the scaling table from the per-cell results: one row per
	// threshold c, exact verdict plus measured parallel time at c−1/c/c+1.
	type row struct {
		states   int
		verified bool
		parallel map[int64]float64 // population size → mean parallel time
	}
	rows := map[int64]*row{}
	for _, cr := range res.Cells {
		if !cr.OK || cr.Param == nil {
			continue
		}
		c := *cr.Param
		r := rows[c]
		if r == nil {
			r = &row{verified: true, parallel: map[int64]float64{}}
			rows[c] = r
		}
		r.states = cr.Result.Protocol.States
		switch {
		case cr.Result.Verification != nil:
			r.verified = r.verified && cr.Result.Verification.AllOK
		case cr.Result.Simulation != nil && cr.Result.Simulation.Estimate != nil:
			r.parallel[cr.Size] = cr.Result.Simulation.Estimate.MeanParallel
		}
	}
	fmt.Printf("\n%-4s %-7s %-9s %12s %12s %12s\n", "c", "states", "exact", "par(c-1)", "par(c)", "par(c+1)")
	for c := int64(2); c <= 9; c++ {
		r := rows[c]
		if r == nil {
			continue
		}
		verdict := "yes"
		if !r.verified {
			verdict = "NO"
		}
		fmt.Printf("%-4d %-7d %-9s %12s %12s %12s\n", c, r.states, verdict,
			par(r.parallel, c-1), par(r.parallel, c), par(r.parallel, c+1))
	}
	fmt.Printf("\n%d/%d cells in %.0f ms (workers=%d); simulate parallel-time p50=%.1f p95=%.1f\n",
		res.Completed, res.TotalCells, res.WallMillis, res.Workers,
		res.Simulation.ParallelP50, res.Simulation.ParallelP95)
}

// par renders one measured mean parallel time ("-" when the population was
// skipped, e.g. below 2 agents).
func par(m map[int64]float64, n int64) string {
	v, ok := m[n]
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}
