package engine

import (
	"repro/internal/jsonenc"
	"repro/internal/pump"
	"repro/internal/realise"
)

// ProtocolInfo summarises the resolved protocol of a request.
type ProtocolInfo struct {
	Name        string `json:"name"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	Inputs      int    `json:"inputs"`
	Leaderless  bool   `json:"leaderless"`
	// Hash is the content hash of the protocol's canonical JSON form; it
	// keys the engine's artifact cache.
	Hash string `json:"hash"`
	// Predicate renders the predicate the protocol is known to compute
	// (registry protocols only).
	Predicate string `json:"predicate,omitempty"`
}

// TracePoint is one formatted simulation snapshot.
type TracePoint struct {
	Interactions int64  `json:"interactions"`
	Config       string `json:"config"`
}

// EstimateResult aggregates convergence statistics over repeated runs.
type EstimateResult struct {
	Runs           int     `json:"runs"`
	Converged      int     `json:"converged"`
	Output         int     `json:"output"`
	MeanParallel   float64 `json:"meanParallel"`
	MedianParallel float64 `json:"medianParallel"`
	P95Parallel    float64 `json:"p95Parallel"`
	MaxParallel    float64 `json:"maxParallel"`
	// TotalInteractions counts interactions across all runs (converged or
	// not); with the result's ElapsedMillis it yields the executor's
	// interactions/sec throughput.
	TotalInteractions int64 `json:"totalInteractions,omitempty"`
	// MeanInteractions is the mean convergence interaction count over the
	// converged runs (0 if none converged).
	MeanInteractions float64 `json:"meanInteractions,omitempty"`
}

// SimulationResult reports a simulate request.
type SimulationResult struct {
	Converged      bool         `json:"converged"`
	Output         int          `json:"output"`
	Interactions   int64        `json:"interactions"`
	ParallelTime   float64      `json:"parallelTime"`
	ConsensusAt    int64        `json:"consensusAt"`
	Final          []int64      `json:"final,omitempty"`
	FinalFormatted string       `json:"finalFormatted,omitempty"`
	Trace          []TracePoint `json:"trace,omitempty"`
	// Estimate is set instead of the single-run fields when Runs > 1.
	Estimate *EstimateResult `json:"estimate,omitempty"`
}

// VerifyFailure is one failing input of a verify request.
type VerifyFailure struct {
	Input []int64 `json:"input"`
	Want  bool    `json:"want"`
	Got   int     `json:"got"`
}

// VerifyResult reports a verify request.
type VerifyResult struct {
	Predicate    string          `json:"predicate"`
	Inputs       int             `json:"inputs"`
	AllOK        bool            `json:"allOK"`
	Failures     []VerifyFailure `json:"failures,omitempty"`
	TotalConfigs int             `json:"totalConfigs"`
	Summary      string          `json:"summary"`
}

// StableResult reports a stable request: the sizes of the computed ideal
// bases and the measured norm (the empirical counterpart of Lemma 3.2's β).
// Iterations counts the backward-coverability fixpoint rounds per output
// and Frontier the total frontier elements those rounds expanded — the
// work measure of the frontier-driven core.
type StableResult struct {
	Basis0      int   `json:"basis0"`
	Basis1      int   `json:"basis1"`
	SCBasis     int   `json:"scBasis"`
	Iterations0 int   `json:"iterations0"`
	Iterations1 int   `json:"iterations1"`
	Frontier0   int   `json:"frontier0"`
	Frontier1   int   `json:"frontier1"`
	Norm        int64 `json:"norm"`
}

// CertificateResult reports a certify-chain or certify-leaderless request.
// The certificate was independently re-checked before being returned.
type CertificateResult struct {
	Pipeline string `json:"pipeline"`
	// A and B state the conclusion: if the protocol computes x ≥ η, then
	// η ≤ A, pumped in steps of B.
	A          int64                       `json:"a"`
	B          int64                       `json:"b"`
	Chain      *pump.ChainCertificate      `json:"chain,omitempty"`
	Leaderless *pump.LeaderlessCertificate `json:"leaderless,omitempty"`
}

// SaturationResult reports a saturate request (the Lemma 5.4 witness).
type SaturationResult struct {
	Stages      int     `json:"stages"`
	Input       int64   `json:"input"`
	SequenceLen int     `json:"sequenceLen"`
	Config      []int64 `json:"config"`
}

// BasisResult reports a basis request.
type BasisResult struct {
	Size  int                          `json:"size"`
	Basis []realise.TransitionMultiset `json:"basis"`
}

// BoundsResult reports a bounds request. Values are rendered strings
// because the constants overflow any machine integer (β(4) already has
// more than 10^8 decimal digits; the library computes them exactly).
type BoundsResult struct {
	States              int64  `json:"states"`
	Transitions         int64  `json:"transitions"`
	Beta                string `json:"beta"`
	Theta               string `json:"theta"`
	Xi                  string `json:"xi"`
	XiDeterministic     string `json:"xiDeterministic"`
	Theorem59           string `json:"theorem59"`
	Theorem59Simplified string `json:"theorem59Simplified"`
	BBLowerLeaderless   string `json:"bbLowerLeaderless"`
	BBLLowerWithLeaders string `json:"bblLowerWithLeaders"`
}

// CoverResult reports a cover request: over all states q with the given
// output coverable from the initial configuration of Input, the largest
// shortest-covering-execution length (exact BFS). Lemma 3.2 bounds these
// lengths by β(n); the measured values quantify the slack.
type CoverResult struct {
	Input []int64 `json:"input"`
	// MaxLen1 and MaxLen0 are the largest shortest-cover lengths to a state
	// with output 1 and 0 respectively (0 if no such state is coverable).
	MaxLen1 int `json:"maxLen1"`
	MaxLen0 int `json:"maxLen0"`
}

// Result is the typed answer to a Request. Exactly one payload field
// (matching the request kind) is non-nil.
type Result struct {
	Kind     Kind          `json:"kind"`
	Protocol *ProtocolInfo `json:"protocol,omitempty"`
	// ElapsedMillis is the engine-side wall-clock time.
	ElapsedMillis float64 `json:"elapsedMillis"`
	// CacheHit reports whether the request was served from memoized
	// per-protocol artifacts.
	CacheHit bool `json:"cacheHit,omitempty"`

	Simulation   *SimulationResult  `json:"simulation,omitempty"`
	Verification *VerifyResult      `json:"verification,omitempty"`
	Stable       *StableResult      `json:"stable,omitempty"`
	Certificate  *CertificateResult `json:"certificate,omitempty"`
	Saturation   *SaturationResult  `json:"saturation,omitempty"`
	Basis        *BasisResult       `json:"basis,omitempty"`
	Bounds       *BoundsResult      `json:"bounds,omitempty"`
	Cover        *CoverResult       `json:"cover,omitempty"`
}

// AppendJSON appends the result to dst exactly as encoding/json's Encoder
// writes it with HTML escaping off, without the trailing newline: the
// sweep row encoder's payload. Simulation, verification, stable, cover and
// saturation payloads are hand-encoded; the rare certificate, basis and
// bounds payloads go through encoding/json. A non-finite float, which
// encoding/json refuses, is an error, and dst comes back unextended.
func (r *Result) AppendJSON(dst []byte) ([]byte, error) {
	b := jsonenc.Buf{B: dst}
	b.String(`{"kind":`, string(r.Kind))
	if p := r.Protocol; p != nil {
		b.String(`,"protocol":{"name":`, p.Name)
		b.Int(`,"states":`, int64(p.States))
		b.Int(`,"transitions":`, int64(p.Transitions))
		b.Int(`,"inputs":`, int64(p.Inputs))
		b.Bool(`,"leaderless":`, p.Leaderless)
		b.String(`,"hash":`, p.Hash)
		if p.Predicate != "" {
			b.String(`,"predicate":`, p.Predicate)
		}
		b.Raw(`}`)
	}
	b.Float(`,"elapsedMillis":`, r.ElapsedMillis)
	if r.CacheHit {
		b.Raw(`,"cacheHit":true`)
	}
	if r.Simulation != nil {
		r.Simulation.appendJSON(&b)
	}
	if r.Verification != nil {
		r.Verification.appendJSON(&b)
	}
	if s := r.Stable; s != nil {
		b.Int(`,"stable":{"basis0":`, int64(s.Basis0))
		b.Int(`,"basis1":`, int64(s.Basis1))
		b.Int(`,"scBasis":`, int64(s.SCBasis))
		b.Int(`,"iterations0":`, int64(s.Iterations0))
		b.Int(`,"iterations1":`, int64(s.Iterations1))
		b.Int(`,"frontier0":`, int64(s.Frontier0))
		b.Int(`,"frontier1":`, int64(s.Frontier1))
		b.Int(`,"norm":`, s.Norm)
		b.Raw(`}`)
	}
	if r.Certificate != nil {
		b.Marshal(`,"certificate":`, r.Certificate)
	}
	if s := r.Saturation; s != nil {
		b.Int(`,"saturation":{"stages":`, int64(s.Stages))
		b.Int(`,"input":`, s.Input)
		b.Int(`,"sequenceLen":`, int64(s.SequenceLen))
		b.Ints(`,"config":`, s.Config)
		b.Raw(`}`)
	}
	if r.Basis != nil {
		b.Marshal(`,"basis":`, r.Basis)
	}
	if r.Bounds != nil {
		b.Marshal(`,"bounds":`, r.Bounds)
	}
	if c := r.Cover; c != nil {
		b.Ints(`,"cover":{"input":`, c.Input)
		b.Int(`,"maxLen1":`, int64(c.MaxLen1))
		b.Int(`,"maxLen0":`, int64(c.MaxLen0))
		b.Raw(`}`)
	}
	b.Raw(`}`)
	if b.Err != nil {
		return dst, b.Err
	}
	return b.B, nil
}

func (s *SimulationResult) appendJSON(b *jsonenc.Buf) {
	b.Bool(`,"simulation":{"converged":`, s.Converged)
	b.Int(`,"output":`, int64(s.Output))
	b.Int(`,"interactions":`, s.Interactions)
	b.Float(`,"parallelTime":`, s.ParallelTime)
	b.Int(`,"consensusAt":`, s.ConsensusAt)
	if len(s.Final) > 0 {
		b.Ints(`,"final":`, s.Final)
	}
	if s.FinalFormatted != "" {
		b.String(`,"finalFormatted":`, s.FinalFormatted)
	}
	if len(s.Trace) > 0 {
		b.Raw(`,"trace":[`)
		for i, tp := range s.Trace {
			if i > 0 {
				b.Raw(`,`)
			}
			b.Int(`{"interactions":`, tp.Interactions)
			b.String(`,"config":`, tp.Config)
			b.Raw(`}`)
		}
		b.Raw(`]`)
	}
	if e := s.Estimate; e != nil {
		b.Int(`,"estimate":{"runs":`, int64(e.Runs))
		b.Int(`,"converged":`, int64(e.Converged))
		b.Int(`,"output":`, int64(e.Output))
		b.Float(`,"meanParallel":`, e.MeanParallel)
		b.Float(`,"medianParallel":`, e.MedianParallel)
		b.Float(`,"p95Parallel":`, e.P95Parallel)
		b.Float(`,"maxParallel":`, e.MaxParallel)
		if e.TotalInteractions != 0 {
			b.Int(`,"totalInteractions":`, e.TotalInteractions)
		}
		// omitempty drops a float equal to 0, negative zero included.
		if e.MeanInteractions != 0 {
			b.Float(`,"meanInteractions":`, e.MeanInteractions)
		}
		b.Raw(`}`)
	}
	b.Raw(`}`)
}

func (v *VerifyResult) appendJSON(b *jsonenc.Buf) {
	b.String(`,"verification":{"predicate":`, v.Predicate)
	b.Int(`,"inputs":`, int64(v.Inputs))
	b.Bool(`,"allOK":`, v.AllOK)
	if len(v.Failures) > 0 {
		b.Raw(`,"failures":[`)
		for i, f := range v.Failures {
			if i > 0 {
				b.Raw(`,`)
			}
			b.Ints(`{"input":`, f.Input)
			b.Bool(`,"want":`, f.Want)
			b.Int(`,"got":`, int64(f.Got))
			b.Raw(`}`)
		}
		b.Raw(`]`)
	}
	b.Int(`,"totalConfigs":`, int64(v.TotalConfigs))
	b.String(`,"summary":`, v.Summary)
	b.Raw(`}`)
}
