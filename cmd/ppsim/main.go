// Command ppsim simulates a population protocol under the uniform random
// scheduler and reports the stable outcome and parallel time.
//
// Usage:
//
//	ppsim -protocol flock:8 -input 20
//	ppsim -protocol majority -input 12,9 -runs 20
//	ppsim -file proto.json -input 10 -seed 7 -exact
//
// Built-in protocol specs are documented in `ppsim -h` (flock:η,
// succinct:k, binary:η, majority, parity, mod:m:r, leaderflock:η).
package main

import (
	"context"
	"flag"
	"fmt"

	"repro/internal/cli"
	"repro/internal/engine"
)

func main() { cli.Main("ppsim", run) }

func run(args []string) error {
	fs := flag.NewFlagSet("ppsim", flag.ContinueOnError)
	var (
		spec  = fs.String("protocol", "", cli.SpecUsage)
		file  = fs.String("file", "", "JSON protocol file (alternative to -protocol)")
		input = fs.String("input", "", "input multiset, e.g. \"20\" or \"12,9\" for two variables")
		seed  = fs.Uint64("seed", 1, "RNG seed")
		steps = fs.Int64("steps", 0, "interaction budget (0 = default)")
		runs  = fs.Int("runs", 1, "number of runs (statistics over seeds)")
		exact = fs.Bool("exact", false, "use the exact stable-set oracle (backward coverability) for convergence detection")
		trace = fs.Int64("trace", 0, "print a configuration snapshot every N interactions")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ref, err := cli.ProtocolRef(*spec, *file)
	if err != nil {
		return err
	}
	eng := engine.New()
	entry, err := eng.Resolve(ref)
	if err != nil {
		return err
	}
	p := entry.Protocol
	in, err := cli.ParseInput(*input, p.NumInputs())
	if err != nil {
		return err
	}
	c0 := p.InitialConfig(in)
	fmt.Printf("protocol: %s (%d states, %d transitions)\n", p.Name(), p.NumStates(), p.NumTransitions())
	fmt.Printf("input: %v → IC = %s (%d agents)\n", in, p.FormatConfig(c0), c0.Size())

	res, err := eng.Do(context.Background(), engine.Request{
		Kind:        engine.KindSimulate,
		Protocol:    ref,
		Input:       in,
		Seed:        *seed,
		MaxSteps:    *steps,
		Runs:        *runs,
		ExactOracle: *exact,
		TraceEvery:  *trace,
	})
	if err != nil {
		return err
	}
	st := res.Simulation
	if est := st.Estimate; est != nil {
		fmt.Printf("runs=%d converged=%d output=%d parallel(mean=%.1f median=%.1f p95=%.1f max=%.1f)\n",
			est.Runs, est.Converged, est.Output,
			est.MeanParallel, est.MedianParallel, est.P95Parallel, est.MaxParallel)
		if est.TotalInteractions > 0 && res.ElapsedMillis > 0 {
			fmt.Printf("executor: %d interactions in %.2f ms (%.2gM interactions/sec)\n",
				est.TotalInteractions, res.ElapsedMillis,
				float64(est.TotalInteractions)/res.ElapsedMillis/1000)
		}
		return nil
	}
	for _, tp := range st.Trace {
		fmt.Printf("  t=%-10d %s\n", tp.Interactions, tp.Config)
	}
	if !st.Converged {
		fmt.Printf("did not converge within %d interactions (parallel time %.1f)\n",
			st.Interactions, st.ParallelTime)
		return nil
	}
	fmt.Printf("stable output: %d after %d interactions (parallel time %.1f, consensus at %d)\n",
		st.Output, st.Interactions, st.ParallelTime, st.ConsensusAt)
	fmt.Printf("final configuration: %s\n", st.FinalFormatted)
	return nil
}
