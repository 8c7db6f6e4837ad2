// Package pp is a Go library for population protocols, built as a faithful,
// executable reproduction of
//
//	Czerner, Esparza, Leroux: "Lower Bounds on the State Complexity of
//	Population Protocols", PODC 2021 (arXiv:2102.11619).
//
// Population protocols (Angluin et al.) are networks of indistinguishable
// finite-state agents that interact in uniformly random pairs and decide
// predicates over their initial configuration by stable consensus. The
// paper bounds the *busy beaver function* of the model: how large a
// threshold η can a protocol with n states decide (predicate x ≥ η)?
//
// # The analysis engine
//
// The public surface is the analysis engine: one typed, JSON-round-trippable
// Request/Result model covering every analysis in the library.
//
//	eng := pp.NewEngine()
//	res, err := eng.Do(ctx, pp.Request{
//		Kind:     pp.KindSimulate,
//		Protocol: pp.ProtocolRef{Spec: "flock:8"},
//		Input:    []int64{20},
//	})
//
// Request kinds: simulate (stochastic simulation), verify (exact per-input
// verification), stable (stable sets SC_0/SC_1 with ideal bases),
// certify-chain and certify-leaderless (the paper's executable pumping
// certificates, Theorems 4.5 and 5.9), saturate (Lemma 5.4), basis
// (potentially realisable transition multisets, Definition 4), bounds
// (the paper's constants β, ϑ, ξ in exact arithmetic), and cover (shortest
// covering-execution lengths, the quantity Lemma 3.2 bounds by β).
//
// Protocols are resolved through a registry: compact spec strings
// ("flock:8", "binary:11", "mod:3:1"), inline JSON protocols (the Spec
// interchange format), or user constructors added with pp.Register. The
// engine memoizes expensive per-protocol artifacts — stable-set analyses
// and realisable bases — behind a content-hash cache, so repeated requests
// against the same protocol are near-free; Do takes a context.Context for
// cancellation and per-request deadlines. The cmd/ppserve daemon exposes
// the same model over HTTP (POST /v1/analyze), and all command line tools
// are thin adapters over it.
//
// # Scenario sweeps
//
// The paper's workloads are parametric — thresholds x ≥ c, predicates and
// population sizes swept over constants — so beside the one-request Do
// there is a batch entry point: a declarative SweepSpec expands a cartesian
// grid (protocol templates × parameters × population sizes × kinds, with
// explicit cross-product caps) into engine requests and executes them on a
// worker pool sharing the engine's artifact cache and cancellation.
//
//	spec, _ := pp.ParseSweepSpec([]byte(`{
//	    "protocols": [{"spec": "flock:{N}"}],
//	    "params":    [{"from": 2, "to": 9}],
//	    "kinds":     ["verify", "simulate"],
//	    "sizes":     ["{N}-1", "{N}", "{N}+1"],
//	    "options":   {"runs": 5}
//	}`))
//	res, err := pp.Sweep(ctx, eng, spec, pp.SweepRunOptions{
//	    OnCell: func(c pp.SweepCellResult) { fmt.Println(c.Index, c.Kind, c.OK) },
//	})
//
// Completed cells stream to OnCell in grid order; the returned SweepResult
// aggregates verdicts, convergence percentiles and wall time. The same spec
// runs unchanged via cmd/ppsweep (CSV/NDJSON output) and ppserve's
// streaming POST /v1/sweep endpoint; see examples/sweep and docs/api.md.
//
// # The library underneath
//
// The internal packages provide, per the paper's structure:
//
//   - the protocol model, a zoo of classic constructions (Example 2.1's
//     flock-of-birds and succinct protocols, binary thresholds, majority,
//     modulo, boolean products), and a JSON interchange format;
//   - a stochastic simulator (uniform random scheduler, pluggable exact
//     stability oracles) and an exact verifier (bottom-SCC analysis of the
//     finite configuration graph);
//   - stable-set computation via backward coverability, ideal bases (B,S),
//     and the small basis constant β of Lemma 3.2;
//   - a Contejean–Devie solver for the potentially realisable transition
//     multisets of Definition 4 and Pottier's bound (Theorem 5.6);
//   - executable pumping certificates implementing the proofs of
//     Theorem 4.5 (Dickson chains) and Theorem 5.9 (saturation +
//     concentration), with independent checkers;
//   - the paper's constants (β, ϑ, ξ) and bounds in exact arithmetic, the
//     Fast-Growing Hierarchy fragment of Section 4, and an exhaustive busy
//     beaver search for tiny protocols.
//
// Direct library entry points (Simulate, Verify, AnalyzeStableSets, the
// certificate finders, ...) remain exported for programmatic use when the
// request model is too coarse.
//
// See examples/quickstart for the engine walkthrough, examples/serve for
// the HTTP API, examples/sweep for a parametric scenario sweep, README.md
// for the architecture map, and docs/api.md for the HTTP reference.
// Regenerate the experiment tables with `go run ./cmd/ppexperiments`.
package pp
