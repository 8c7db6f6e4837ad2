package pump

import (
	"errors"
	"fmt"

	"repro/internal/dioph"
	"repro/internal/multiset"
	"repro/internal/protocol"
	"repro/internal/realise"
	"repro/internal/saturate"
	"repro/internal/sim"
	"repro/internal/stable"
)

// Finder errors.
var (
	ErrNoConvergence = errors.New("pump: simulation did not reach a stable configuration")
	ErrNoDicksonPair = errors.New("pump: no comparable pair in a common ideal within the chain bound")
	ErrNoTheta       = errors.New("pump: no potentially realisable θ concentrated on S")
	errInterrupted   = errors.New("pump: interrupted")
)

// FindOptions configures the certificate finders.
type FindOptions struct {
	// Seed drives the (deterministic) simulations used to reach stable
	// configurations.
	Seed uint64
	// MaxChain bounds the chain length scanned by FindChain; 0 means 128.
	MaxChain int64
	// MaxRetries bounds the saturation-multiplier retries of
	// FindLeaderless; 0 means 8.
	MaxRetries int
	// SimMaxSteps bounds each simulation; 0 uses the simulator default.
	SimMaxSteps int64
	// Interrupt, when non-nil, cancels the search cooperatively: every
	// analysis, simulation and scan of the finders polls it.
	Interrupt <-chan struct{}
	// Analysis, when non-nil, is a precomputed stable-set analysis of the
	// protocol; the finders use it instead of recomputing. Callers own the
	// consistency of analysis and protocol.
	Analysis *stable.Analysis
	// Basis, when non-nil, is a precomputed realisable basis; FindLeaderless
	// uses it instead of recomputing.
	Basis []realise.TransitionMultiset
}

// stopped polls a cooperative stop channel; a nil channel never stops.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// FindChain searches for a ChainCertificate following the Theorem 4.5 proof:
// build the Lemma 4.2 chain of stable configurations by simulation, scan it
// for a Dickson pair inside a common ideal of SC, and assemble the paths.
// It works for protocols with or without leaders (single input variable).
func FindChain(p *protocol.Protocol, opts FindOptions) (*ChainCertificate, error) {
	if p.NumInputs() != 1 {
		return nil, fmt.Errorf("pump: FindChain needs a single input variable")
	}
	maxChain := opts.MaxChain
	if maxChain == 0 {
		maxChain = 128
	}
	analysis := opts.Analysis
	if analysis == nil {
		var err error
		analysis, err = stable.Analyze(p, stable.Options{Interrupt: opts.Interrupt})
		if err != nil {
			return nil, fmt.Errorf("pump: stable analysis: %w", err)
		}
	}

	type stage struct {
		config multiset.Vec
		path   []int // from previous stage's config + x (or from IC(2) for the first)
	}
	var chain []stage
	x := p.InputState(0)

	start := p.InitialConfigN(2)
	for i := int64(2); i <= maxChain; i++ {
		st, err := sim.Run(p, start, sim.Options{
			Seed:          opts.Seed + uint64(i),
			Oracle:        analysis,
			MaxSteps:      opts.SimMaxSteps,
			RecordFirings: true,
			Interrupt:     opts.Interrupt,
		})
		if err != nil {
			return nil, fmt.Errorf("pump: chain stage %d: %w", i, err)
		}
		if !st.Converged {
			return nil, fmt.Errorf("%w: input %d after %d interactions", ErrNoConvergence, i, st.Interactions)
		}
		chain = append(chain, stage{config: st.Final, path: st.Firings})
		ci := st.Final

		// Scan for k < i with C_k ≤ C_i in a common ideal of SC.
		for kIdx, prev := range chain[:len(chain)-1] {
			if stopped(opts.Interrupt) {
				return nil, errInterrupted
			}
			ck := prev.config
			if !ck.Le(ci) {
				continue
			}
			db := ci.Sub(ck)
			for _, id := range analysis.SC().Ideals() {
				if !id.Contains(ck) || !id.Contains(ci) {
					continue
				}
				s := id.S()
				if !db.SupportedBy(s) {
					continue
				}
				k := int64(kIdx) + 2
				cert := &ChainCertificate{
					A:  k,
					B:  i - k,
					Ca: ck.Clone(),
					Cb: ci.Clone(),
					S:  s,
				}
				for _, st := range chain[:kIdx+1] {
					cert.PathToCa = append(cert.PathToCa, st.path...)
				}
				for _, st := range chain[kIdx+1:] {
					cert.PathCaToCb = append(cert.PathCaToCb, st.path...)
				}
				if err := CheckChain(p, cert, analysis); err != nil {
					// Self-check failed (e.g. replay order breaks): keep
					// scanning rather than return a bad certificate.
					continue
				}
				return cert, nil
			}
		}
		// Next stage starts from C_i + x.
		start = ci.Clone()
		start[x]++
	}
	return nil, fmt.Errorf("%w: scanned up to input %d", ErrNoDicksonPair, maxChain)
}

// FindLeaderless searches for a LeaderlessCertificate following the
// Theorem 5.9 proof: saturate (Lemma 5.4), stabilise and decompose
// (Lemma 5.5), then find a small potentially realisable θ concentrated on S
// (Corollary 5.7/Lemma 5.8). The saturation multiplier is grown until θ's
// 2|θ|-saturation requirement holds.
func FindLeaderless(p *protocol.Protocol, opts FindOptions) (*LeaderlessCertificate, error) {
	if !p.Leaderless() || p.NumInputs() != 1 {
		return nil, fmt.Errorf("pump: FindLeaderless needs a leaderless single-input protocol")
	}
	maxRetries := opts.MaxRetries
	if maxRetries == 0 {
		maxRetries = 8
	}
	analysis := opts.Analysis
	if analysis == nil {
		var err error
		analysis, err = stable.Analyze(p, stable.Options{Interrupt: opts.Interrupt})
		if err != nil {
			return nil, fmt.Errorf("pump: stable analysis: %w", err)
		}
	}
	sat, err := saturate.Saturate(p)
	if err != nil {
		return nil, fmt.Errorf("pump: saturation: %w", err)
	}
	if sat.Sequence == nil && sat.Stages > 0 {
		return nil, fmt.Errorf("pump: saturation sequence too long to certify")
	}
	basis := opts.Basis
	if basis == nil {
		var err error
		basis, err = realise.Basis(p, dioph.Options{Interrupt: opts.Interrupt})
		if err != nil {
			return nil, fmt.Errorf("pump: realisable basis: %w", err)
		}
	}

	m := int64(1)
	// Configurations need at least two agents (the simulator and the
	// paper's |C| ≥ 2 convention).
	for m*sat.Input < 2 {
		m++
	}
	var lastErr error = ErrNoTheta
	for try := 0; try < maxRetries; try++ {
		d := sat.Config.Scale(m)
		a := m * sat.Input
		pathToD := repeatPath(sat.Sequence, m)

		st, err := sim.Run(p, d, sim.Options{
			Seed:          opts.Seed + uint64(try),
			Oracle:        analysis,
			MaxSteps:      opts.SimMaxSteps,
			RecordFirings: true,
			Interrupt:     opts.Interrupt,
		})
		if err != nil {
			return nil, fmt.Errorf("pump: stabilising D: %w", err)
		}
		if !st.Converged {
			return nil, fmt.Errorf("%w: from D with |D| = %d", ErrNoConvergence, d.Size())
		}
		base, sBits, da, ok := analysis.DecomposeStable(st.Final)
		if !ok {
			return nil, fmt.Errorf("pump: simulator returned an unstable configuration")
		}
		// The certificate JSON format keeps S as a map.
		s := sBits.ToMap()

		theta, b, db, found := findTheta(p, basis, s, opts.Interrupt)
		if stopped(opts.Interrupt) {
			return nil, errInterrupted
		}
		if !found {
			lastErr = fmt.Errorf("%w (S = %v, |D| = %d)", ErrNoTheta, s, d.Size())
			m *= 2
			continue
		}
		if m < 2*theta.Size() {
			// Not saturated enough for Lemma 5.1(ii); grow and retry.
			m = 2 * theta.Size()
			lastErr = fmt.Errorf("pump: need 2|θ| = %d saturation", 2*theta.Size())
			continue
		}
		cert := &LeaderlessCertificate{
			A:            a,
			B:            b,
			PathToD:      pathToD,
			D:            d,
			PathToStable: st.Firings,
			Stable:       st.Final,
			Base:         base,
			S:            s,
			Da:           da,
			Theta:        theta,
			Db:           db,
		}
		if err := CheckLeaderless(p, cert, analysis); err != nil {
			return nil, fmt.Errorf("pump: self-check failed: %w", err)
		}
		return cert, nil
	}
	return nil, lastErr
}

// findTheta searches for a potentially realisable θ whose witness Db is
// supported by S with witness input b ≥ 1. It tries, in order: the empty θ
// when x ∈ S (then IC(1) ⇒ 1·x ∈ ℕ^S); single basis elements; and sums of
// two or three basis elements. It polls stop inside the sums over the basis
// and reports no θ once stop has closed.
func findTheta(p *protocol.Protocol, basis []realise.TransitionMultiset, s map[int]bool, stop <-chan struct{}) (realise.TransitionMultiset, int64, multiset.Vec, bool) {
	x := int(p.InputState(0))
	if s[x] {
		theta := realise.TransitionMultiset{}
		db := multiset.Unit(p.NumStates(), x)
		return theta, 1, db, true
	}
	candidate := func(theta realise.TransitionMultiset) (int64, multiset.Vec, bool) {
		i, c := realise.Witness(p, theta)
		if i >= 1 && c.SupportedBy(s) {
			return i, c, true
		}
		return 0, nil, false
	}
	var (
		best      realise.TransitionMultiset
		bestB     int64
		bestDb    multiset.Vec
		bestFound bool
	)
	consider := func(theta realise.TransitionMultiset) {
		if b, db, ok := candidate(theta); ok {
			if !bestFound || theta.Size() < best.Size() {
				best, bestB, bestDb, bestFound = theta, b, db, true
			}
		}
	}
	for _, t1 := range basis {
		consider(t1)
	}
	if !bestFound {
		for i, t1 := range basis {
			if stopped(stop) {
				return nil, 0, nil, false
			}
			for _, t2 := range basis[i:] {
				consider(t1.Add(t2))
			}
		}
	}
	if !bestFound {
		for i, t1 := range basis {
			for j, t2 := range basis[i:] {
				if stopped(stop) {
					return nil, 0, nil, false
				}
				for _, t3 := range basis[i+j:] {
					consider(t1.Add(t2).Add(t3))
				}
			}
		}
	}
	return best, bestB, bestDb, bestFound
}

// repeatPath concatenates m copies of seq; by monotonicity the result fires
// from m·(the original start).
func repeatPath(seq []int, m int64) []int {
	if len(seq) == 0 || m == 0 {
		return nil
	}
	out := make([]int, 0, int64(len(seq))*m)
	for i := int64(0); i < m; i++ {
		out = append(out, seq...)
	}
	return out
}
