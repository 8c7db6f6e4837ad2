package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/protocol"
)

// ReplicaSeed derives the RNG seed of replica i from a base seed with a
// SplitMix64-style mix: the golden-ratio increment steps the stream and the
// finalizer avalanches every bit, so nearby base seeds (or nearby replica
// indices) produce unrelated PCG seeds. The previous additive derivation
// (base + i·2654435769) made base seeds s and s+2654435769 share all but
// one replica stream; mixed seeds have no such collisions in practice.
//
// All multi-replica executors (RunReplicas, RunConcurrent,
// EstimateParallelTime) derive their per-replica seeds through this
// function, so their replica streams line up: replica i of any of them
// equals Run with Seed = ReplicaSeed(base, i).
func ReplicaSeed(base uint64, i int) uint64 {
	z := base + (uint64(i)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// replicaOutcome is the per-replica scalar record RunReplicas aggregates:
// the executor streams each replica's Stats into these few words and drops
// the rest (Final configurations, traces, firing lists), so a million-
// replica batch holds O(runs) scalars, never O(runs) configurations.
type replicaOutcome struct {
	converged    bool
	output       int
	parallel     float64
	interactions int64
	err          error
}

// runBatch is the shared scaffolding of the batch executors: it validates
// the workload, builds the transition tables once, and executes replicas
// 0..runs-1 across a worker pool, each worker reusing one scratch set
// (Runner) over the shared tables. record observes every executed replica
// (from worker goroutines, but never twice for one index); replica i runs
// with seed ReplicaSeed(opts.Seed, i). Workers claim indices from a shared
// counter; the calling goroutine is worker 0 and starts only the other
// workers−1, so a one-worker batch (each engine simulate cell) runs on the
// caller's goroutine alone.
//
// A replica error (interruption included) trips the abort flag: replicas
// not yet started are skipped, so a cancelled batch stops after the
// in-flight replicas notice, not after every remaining replica has run to
// its first interrupt poll. Indices are claimed in ascending order, so
// every skipped index exceeds the erroring one and a caller folding in
// index order still reports the first error deterministically.
func runBatch(p *protocol.Protocol, c0 protocol.Config, runs int, opts Options, workers int, record func(i int, st Stats, err error)) error {
	if runs < 1 {
		return fmt.Errorf("sim: runs must be ≥ 1, got %d", runs)
	}
	if err := validateRun(p, c0); err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	tbl := buildTables(p)
	var aborted atomic.Bool
	var next atomic.Int64
	work := func() {
		r := newRunnerShared(p, c0, tbl)
		for !aborted.Load() {
			i := int(next.Add(1) - 1)
			if i >= runs {
				return
			}
			o := opts
			o.Seed = ReplicaSeed(opts.Seed, i)
			st, err := r.Run(o)
			record(i, st, err)
			if err != nil {
				aborted.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return nil
}

// RunReplicas executes `runs` independent replicas of one simulation
// workload across a worker pool and aggregates them into an Estimate.
//
// This is the batch executor behind the sweep subsystem's convergence cells
// (E1/E2-style grids): each worker builds its per-replica scratch — Fenwick
// tree, configuration buffer — once and reuses it for every replica it
// executes, over transition tables built once for the whole batch, so a
// 10^3-replica cell pays the setup cost once, not 10^3 times. Replica i
// runs with seed ReplicaSeed(opts.Seed, i); the aggregate is deterministic
// for a fixed base seed regardless of worker count or scheduling.
// workers ≤ 0 selects GOMAXPROCS.
func RunReplicas(p *protocol.Protocol, c0 protocol.Config, runs int, opts Options, workers int) (Estimate, error) {
	est := Estimate{Runs: runs, Output: -1}
	// Clamped so a negative runs reaches runBatch's validation, not make.
	outs := make([]replicaOutcome, max(runs, 0))
	err := runBatch(p, c0, runs, opts, workers, func(i int, st Stats, err error) {
		outs[i] = replicaOutcome{
			converged:    st.Converged,
			output:       st.Output,
			parallel:     st.ParallelTime,
			interactions: st.Interactions,
			err:          err,
		}
	})
	if err != nil {
		return est, err
	}

	// Fold the outcomes in replica order, so errors and the disagreement
	// verdict are deterministic whatever the completion order was.
	var times []float64
	for i, out := range outs {
		if out.err != nil {
			return est, fmt.Errorf("run %d: %w", i, out.err)
		}
		est.TotalInteractions += out.interactions
		if !out.converged {
			continue
		}
		est.Converged++
		times = append(times, out.parallel)
		est.MeanInteractions += float64(out.interactions)
		switch est.Output {
		case -1:
			est.Output = out.output
		case out.output:
		default:
			est.Output = -1
			return est, fmt.Errorf("sim: runs disagree on stable output")
		}
	}
	if len(times) == 0 {
		return est, nil
	}
	est.MeanInteractions /= float64(len(times))
	sort.Float64s(times)
	var sum float64
	for _, t := range times {
		sum += t
	}
	est.MeanParallel = sum / float64(len(times))
	est.MedianParallel = quantile(times, 0.5)
	est.P95Parallel = quantile(times, 0.95)
	est.MaxParallel = times[len(times)-1]
	return est, nil
}
