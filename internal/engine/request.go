package engine

import (
	"encoding/json"
	"fmt"

	"repro/internal/multiset"
	"repro/internal/pred"
)

// Kind names an analysis the engine can run.
type Kind string

// The analysis kinds.
const (
	// KindSimulate runs the protocol under the uniform random scheduler.
	KindSimulate Kind = "simulate"
	// KindVerify exactly verifies the protocol against a predicate for
	// every input size in [MinSize, MaxSize].
	KindVerify Kind = "verify"
	// KindStable computes the stable sets SC_0 and SC_1 with their ideal
	// bases (backward coverability).
	KindStable Kind = "stable"
	// KindCertifyChain finds and checks a Theorem 4.5 pumping certificate
	// (works with leaders).
	KindCertifyChain Kind = "certify-chain"
	// KindCertifyLeaderless finds and checks a Theorem 5.9 certificate.
	KindCertifyLeaderless Kind = "certify-leaderless"
	// KindSaturate runs the Lemma 5.4 saturation construction.
	KindSaturate Kind = "saturate"
	// KindBasis computes the generating basis of potentially realisable
	// transition multisets (Definition 4 / Corollary 5.7).
	KindBasis Kind = "basis"
	// KindBounds evaluates the paper's constants and busy beaver bounds.
	KindBounds Kind = "bounds"
	// KindCover measures the shortest covering-execution lengths from the
	// initial configuration of an input — the quantity Rackoff's theorem
	// bounds by β(n) inside Lemma 3.2's proof.
	KindCover Kind = "cover"
)

// Kinds lists every analysis kind.
var Kinds = []Kind{
	KindSimulate, KindVerify, KindStable, KindCertifyChain,
	KindCertifyLeaderless, KindSaturate, KindBasis, KindBounds, KindCover,
}

// Valid reports whether k names a known analysis.
func (k Kind) Valid() bool {
	for _, v := range Kinds {
		if k == v {
			return true
		}
	}
	return false
}

// ProtocolRef names the protocol a request operates on: either a registry
// spec string ("flock:8", "majority", or a user-registered name) or an
// inline JSON protocol (the protocol.Spec interchange format). Exactly one
// of the two must be set, except for bounds requests with explicit state
// counts, which need no protocol at all.
type ProtocolRef struct {
	Spec   string          `json:"spec,omitempty"`
	Inline json.RawMessage `json:"inline,omitempty"`
}

// IsZero reports whether the reference is empty.
func (r ProtocolRef) IsZero() bool { return r.Spec == "" && len(r.Inline) == 0 }

// PredicateSpec describes the predicate a verify request checks against,
// for protocols (inline ones in particular) that do not carry their own.
type PredicateSpec struct {
	// Kind is "counting" (x ≥ Threshold), "mod" (x ≡ Residue mod Modulus),
	// or "majority" (x_A > x_B).
	Kind      string `json:"kind"`
	Threshold int64  `json:"threshold,omitempty"`
	Modulus   int64  `json:"modulus,omitempty"`
	Residue   int64  `json:"residue,omitempty"`
}

// Build constructs the predicate.
func (s *PredicateSpec) Build() (pred.Pred, error) {
	switch s.Kind {
	case "counting":
		if s.Threshold < 1 {
			return nil, fmt.Errorf("%w: counting predicate needs threshold ≥ 1", ErrBadRequest)
		}
		return pred.NewCounting(s.Threshold), nil
	case "mod":
		if s.Modulus < 1 {
			return nil, fmt.Errorf("%w: mod predicate needs modulus ≥ 1", ErrBadRequest)
		}
		return pred.NewModCounting(s.Modulus, s.Residue), nil
	case "majority":
		return pred.NewMajority(), nil
	default:
		return nil, fmt.Errorf("%w: unknown predicate kind %q (counting|mod|majority)", ErrBadRequest, s.Kind)
	}
}

// Request is one analysis job. It is JSON-round-trippable: marshalling and
// unmarshalling any valid request yields an identical value, so requests
// can cross process boundaries (the ppserve HTTP API) losslessly.
//
// Fields beyond Kind and Protocol apply only to the kinds that read them;
// the engine ignores (but preserves) the rest.
type Request struct {
	Kind     Kind        `json:"kind"`
	Protocol ProtocolRef `json:"protocol,omitzero"`

	// Input is the input multiset for simulate and cover requests (one
	// count per input variable).
	Input []int64 `json:"input,omitempty"`
	// Seed seeds randomized analyses (simulate, certificate finders).
	Seed uint64 `json:"seed,omitempty"`
	// MaxSteps bounds simulated interactions (0 = simulator default).
	MaxSteps int64 `json:"maxSteps,omitempty"`
	// Runs > 1 aggregates convergence statistics over that many seeds.
	Runs int `json:"runs,omitempty"`
	// ExactOracle switches convergence detection to the exact stable-set
	// oracle (computed once per protocol and cached).
	ExactOracle bool `json:"exactOracle,omitempty"`
	// TraceEvery records a configuration snapshot every N interactions.
	TraceEvery int64 `json:"traceEvery,omitempty"`

	// Predicate overrides the predicate a verify request checks; required
	// for inline protocols, optional for registry ones (which default to
	// the predicate they are known to compute).
	Predicate *PredicateSpec `json:"predicate,omitempty"`
	// MinSize and MaxSize bound the verified input sizes (defaults 2 and
	// the protocol's exhaustive-verification bound).
	MinSize int64 `json:"minSize,omitempty"`
	MaxSize int64 `json:"maxSize,omitempty"`
	// Limit bounds each configuration graph explored by verify and cover
	// requests (0 = default).
	Limit int `json:"limit,omitempty"`

	// States and Transitions feed bounds requests without a protocol.
	States      int64 `json:"states,omitempty"`
	Transitions int64 `json:"transitions,omitempty"`

	// TimeoutMillis bounds the request's wall-clock time; 0 means no
	// request-level deadline (the caller's context still applies).
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
}

// ValidateInput checks an input multiset against a protocol arity: the
// component count must match, every component must be non-negative, and the
// population must have at least 2 agents. This is the single authoritative
// implementation of the input rules; cli.ParseInput and the engine both
// call it.
func ValidateInput(v multiset.Vec, arity int) error {
	if len(v) != arity {
		return fmt.Errorf("%w: input has %d components, protocol expects %d", ErrBadRequest, len(v), arity)
	}
	for i, n := range v {
		if n < 0 {
			return fmt.Errorf("%w: bad input component %d", ErrBadRequest, v[i])
		}
	}
	if v.Size() < 2 {
		return fmt.Errorf("%w: populations need at least 2 agents, got %d", ErrBadRequest, v.Size())
	}
	return nil
}
