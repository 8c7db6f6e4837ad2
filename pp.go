package pp

import (
	"context"

	"repro/internal/bounds"
	"repro/internal/dioph"
	"repro/internal/engine"
	"repro/internal/pred"
	"repro/internal/protocol"
	"repro/internal/protocols"
	"repro/internal/pump"
	"repro/internal/reach"
	"repro/internal/realise"
	"repro/internal/saturate"
	"repro/internal/sim"
	"repro/internal/stable"
	"repro/internal/sweep"
)

// The analysis engine: one typed Request/Result API over every analysis in
// the library. Engines resolve protocols through a registry (compact specs
// like "flock:8", inline JSON, user constructors added with Register) and
// memoize expensive per-protocol artifacts behind a content-hash cache.
type (
	// Engine executes analysis requests; see NewEngine.
	Engine = engine.Engine
	// Request is one JSON-round-trippable analysis job.
	Request = engine.Request
	// Result is the typed answer to a Request.
	Result = engine.Result
	// AnalysisKind names an analysis (simulate, verify, stable, ...).
	AnalysisKind = engine.Kind
	// ProtocolRef names a protocol: registry spec or inline JSON.
	ProtocolRef = engine.ProtocolRef
	// PredicateSpec describes the predicate of a verify request.
	PredicateSpec = engine.PredicateSpec
	// ProtocolRegistry resolves spec strings to protocols.
	ProtocolRegistry = protocols.Registry
	// ProtocolConstructor builds a protocol entry from spec arguments.
	ProtocolConstructor = protocols.Constructor
)

// The analysis kinds.
const (
	KindSimulate          = engine.KindSimulate
	KindVerify            = engine.KindVerify
	KindStable            = engine.KindStable
	KindCertifyChain      = engine.KindCertifyChain
	KindCertifyLeaderless = engine.KindCertifyLeaderless
	KindSaturate          = engine.KindSaturate
	KindBasis             = engine.KindBasis
	KindBounds            = engine.KindBounds
	KindCover             = engine.KindCover
)

// Scenario sweeps: a declarative grid of analysis cells (protocol templates
// × predicate parameters × population sizes × kinds) executed on a worker
// pool over one engine. The cmd/ppsweep tool and the ppserve POST /v1/sweep
// endpoint run the same specs.
type (
	// SweepSpec declares a sweep grid; see the sweep package for the JSON
	// format and examples/sweep for a runnable spec.
	SweepSpec = sweep.Spec
	// SweepCell is one expanded grid point with its engine request.
	SweepCell = sweep.Cell
	// SweepCellResult is the streamed outcome of one executed cell.
	SweepCellResult = sweep.CellResult
	// SweepResult aggregates a whole sweep run.
	SweepResult = sweep.Result
	// SweepRunOptions sets the worker-pool size and the per-cell observer.
	SweepRunOptions = sweep.RunOptions
)

// ParseSweepSpec decodes and validates a JSON sweep spec.
func ParseSweepSpec(data []byte) (SweepSpec, error) { return sweep.ParseSpec(data) }

// Sweep expands a spec and executes every cell against eng on a worker
// pool, streaming completed cells to opts.OnCell in grid order and
// returning the aggregate. Cancelling ctx interrupts in-flight cells and skips the rest.
// (This is the batch entry point beside Engine.Do; it is a function rather
// than a method because Engine is an alias of the internal engine type.)
func Sweep(ctx context.Context, eng *Engine, spec SweepSpec, opts SweepRunOptions) (*SweepResult, error) {
	return sweep.Run(ctx, eng, spec, opts)
}

// NewEngine returns an engine backed by the default protocol registry.
func NewEngine() *Engine { return engine.New() }

// NewEngineWithRegistry returns an engine with its own registry.
func NewEngineWithRegistry(reg *ProtocolRegistry) *Engine {
	return engine.NewWithRegistry(reg)
}

// NewRegistry returns an empty registry resolving the builtin zoo.
func NewRegistry() *ProtocolRegistry { return protocols.NewRegistry() }

// Register adds a user protocol constructor to the default registry,
// making it resolvable by name in requests ("myproto:3").
func Register(name string, ctor ProtocolConstructor) error {
	return protocols.Register(name, ctor)
}

// ErrBadRequest wraps every request-validation failure.
var ErrBadRequest = engine.ErrBadRequest

// Core model types, re-exported from the internal packages.
type (
	// Protocol is an immutable population protocol (Q, T, L, X, I, O).
	Protocol = protocol.Protocol
	// Builder assembles protocols; see NewBuilder.
	Builder = protocol.Builder
	// State indexes a protocol state.
	State = protocol.State
	// Config is a configuration: a multiset of states (agent counts).
	Config = protocol.Config
	// Transition is a pair transition ⟅p,q⟆ ↦ ⟅p',q'⟆.
	Transition = protocol.Transition
	// Pred is a Presburger predicate (threshold, modulo, boolean
	// combinations).
	Pred = pred.Pred
	// Entry pairs a zoo protocol with the predicate it computes.
	Entry = protocols.Entry
)

// NewBuilder starts building a protocol with the given name.
func NewBuilder(name string) *Builder { return protocol.NewBuilder(name) }

// ParseProtocol decodes a protocol from its JSON representation.
func ParseProtocol(data []byte) (*Protocol, error) { return protocol.Parse(data) }

// Predicate constructors.
var (
	// Counting returns the predicate x ≥ η.
	Counting = pred.NewCounting
	// ModCounting returns the predicate x ≡ r (mod m).
	ModCounting = pred.NewModCounting
	// MajorityPred returns the predicate x_A > x_B.
	MajorityPred = pred.NewMajority
)

// Protocol zoo (each returns an Entry with the protocol and its predicate).
var (
	// FlockOfBirds is Example 2.1's P_k generalised to any threshold η
	// (η+1 states).
	FlockOfBirds = protocols.FlockOfBirds
	// Succinct is Example 2.1's P'_k computing x ≥ 2^k with k+2 states.
	Succinct = protocols.Succinct
	// BinaryThreshold computes x ≥ η with O(log η) states (Theorem 2.2,
	// Ω direction).
	BinaryThreshold = protocols.BinaryThreshold
	// Majority is the classic 4-state protocol for x_A > x_B.
	Majority = protocols.Majority
	// ModuloIn computes "x mod m ∈ R" with m+2 states.
	ModuloIn = protocols.ModuloIn
	// Parity computes "x is odd".
	Parity = protocols.Parity
	// LeaderFlock computes x ≥ η with one leader (exercises leader
	// semantics).
	LeaderFlock = protocols.LeaderFlock
	// Product combines two protocols under a boolean connective.
	Product = protocols.Product
	// Negate flips all outputs, computing the negated predicate.
	Negate = protocols.Negate
	// Catalog returns the built-in protocol collection.
	Catalog = protocols.Catalog
)

// Boolean connectives for Product.
const (
	OpAnd = protocols.OpAnd
	OpOr  = protocols.OpOr
)

// Simulation (uniform random scheduler; fair with probability 1).
type (
	// SimOptions configures a simulation run.
	SimOptions = sim.Options
	// SimStats reports one simulated execution.
	SimStats = sim.Stats
	// Oracle detects stable configurations during simulation.
	Oracle = sim.Oracle
)

// Simulate runs the protocol from configuration c0 until stability is
// detected or the step budget is exhausted.
func Simulate(p *Protocol, c0 Config, opts SimOptions) (SimStats, error) {
	return sim.Run(p, c0, opts)
}

// EstimateParallelTime aggregates convergence statistics over repeated
// runs.
var EstimateParallelTime = sim.EstimateParallelTime

// SimulateReplicas executes many replicas of one workload across a worker
// pool, reusing per-worker scratch (transition tables, sampling tree,
// configuration buffer) across replicas and streaming the outcomes into an
// aggregate. Replica i runs with seed ReplicaSeed(baseSeed, i); the
// aggregate is deterministic for a fixed base seed whatever the worker
// count.
var SimulateReplicas = sim.RunReplicas

// ReplicaSeed derives per-replica RNG seeds from a base seed with a
// SplitMix64-style mix; all multi-replica simulation entry points use it.
var ReplicaSeed = sim.ReplicaSeed

// Exact verification (sound and complete per input, via bottom-SCC
// analysis of the configuration graph).
type (
	// VerifyReport aggregates exact verification results.
	VerifyReport = reach.Report
)

// Verify checks that the protocol computes phi for every input of total
// size in [minSize, maxSize]; limit bounds each configuration graph
// (0 = default).
func Verify(p *Protocol, phi Pred, minSize, maxSize int64, limit int) (*VerifyReport, error) {
	return reach.VerifyRange(p, phi, minSize, maxSize, limit)
}

// ObservedThreshold returns the smallest accepted input of a single-input
// protocol, verifying monotone threshold behaviour up to maxInput.
var ObservedThreshold = reach.ThresholdWitness

// Stable sets (Definition 2 / Lemma 3.2), computed for all population
// sizes by backward coverability.
type (
	// StableAnalysis holds SC_0 and SC_1 with their ideal bases; it also
	// implements Oracle for exact convergence detection in simulations.
	StableAnalysis = stable.Analysis
	// StableOptions configures AnalyzeStableSetsOpts: basis cap and
	// cooperative interrupt.
	StableOptions = stable.Options
)

// AnalyzeStableSets computes SC_0 and SC_1 exactly.
func AnalyzeStableSets(p *Protocol) (*StableAnalysis, error) {
	return stable.Analyze(p, stable.Options{})
}

// AnalyzeStableSetsOpts computes SC_0 and SC_1 with explicit options.
func AnalyzeStableSetsOpts(p *Protocol, opts StableOptions) (*StableAnalysis, error) {
	return stable.Analyze(p, opts)
}

// Pumping certificates (the paper's proofs, executable).
type (
	// ChainCertificate is the Theorem 4.5 certificate (works with
	// leaders).
	ChainCertificate = pump.ChainCertificate
	// LeaderlessCertificate is the Theorem 5.9 certificate.
	LeaderlessCertificate = pump.LeaderlessCertificate
	// PumpOptions configures the certificate finders.
	PumpOptions = pump.FindOptions
)

// Certificate finders and checkers.
var (
	// FindChainCertificate builds a Lemma 4.1/4.2 certificate.
	FindChainCertificate = pump.FindChain
	// FindLeaderlessCertificate builds a Lemma 5.2 certificate.
	FindLeaderlessCertificate = pump.FindLeaderless
	// CheckChainCertificate validates independently.
	CheckChainCertificate = pump.CheckChain
	// CheckLeaderlessCertificate validates independently.
	CheckLeaderlessCertificate = pump.CheckLeaderless
)

// SimulateConcurrent runs independent simulations across a worker pool;
// results are in seed order and deterministic for a fixed base seed.
var SimulateConcurrent = sim.RunConcurrent

// WriteTraceCSV exports a simulation trace for plotting.
var WriteTraceCSV = sim.WriteTraceCSV

// CoverLengths returns, per target, the shortest covering-execution length
// from start (-1 if uncoverable), tracking all targets in one goal-directed
// BFS that stops at the first level covering the last outstanding target.
var CoverLengths = reach.CoverLengths

// Section 5.3/5.4 machinery.
type (
	// SaturationWitness is the Lemma 5.4 result: IC(3^j) reaches a
	// 1-saturated configuration via an explicit sequence.
	SaturationWitness = saturate.Result
	// TransitionMultiset is a multiset over transition indices (π, θ).
	TransitionMultiset = realise.TransitionMultiset
)

// Saturate runs the Lemma 5.4 construction on a leaderless single-input
// protocol.
var Saturate = saturate.Saturate

// RealisableBasis computes the generating basis of potentially realisable
// transition multisets (Definition 4 / Corollary 5.7).
func RealisableBasis(p *Protocol) ([]TransitionMultiset, error) {
	return realise.Basis(p, dioph.Options{})
}

// Paper constants, exact.
var (
	// Beta is the small basis constant β(n) = 2^(2(2n+1)!+1).
	Beta = bounds.Beta
	// Theta is ϑ(n) = 2^((2n+2)!).
	Theta = bounds.Theta
	// Xi is the Pottier constant 2(2|T|+1)^|Q|.
	Xi = bounds.Xi
	// Theorem59Bound is the busy beaver bound ξ·n·β·3ⁿ.
	Theorem59Bound = bounds.Theorem59
)
