package pump

import (
	"errors"
	"testing"

	"repro/internal/dioph"
	"repro/internal/protocol"
	"repro/internal/protocols"
	"repro/internal/realise"
	"repro/internal/stable"
)

// TestFindLeaderlessOnThresholdZoo runs the full Theorem 5.9 pipeline on
// leaderless threshold protocols: a certificate must be found, it must pass
// the independent checker, and the certified bound A must dominate the true
// threshold η (otherwise the certificate would contradict the verified
// behaviour of the protocol).
func TestFindLeaderlessOnThresholdZoo(t *testing.T) {
	cases := []struct {
		name string
		e    protocols.Entry
		eta  int64
	}{
		{"flock(3)", protocols.FlockOfBirds(3), 3},
		{"flock(4)", protocols.FlockOfBirds(4), 4},
		{"succinct(2)", protocols.Succinct(2), 4},
		{"binary(5)", protocols.BinaryThreshold(5), 5},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			p := tc.e.Protocol
			cert, err := FindLeaderless(p, FindOptions{Seed: 17})
			if err != nil {
				t.Fatalf("FindLeaderless: %v", err)
			}
			// Independent re-check with a fresh analysis.
			if err := CheckLeaderless(p, cert, nil); err != nil {
				t.Fatalf("CheckLeaderless: %v", err)
			}
			if cert.B < 1 {
				t.Fatalf("B = %d", cert.B)
			}
			if cert.A < tc.eta {
				t.Fatalf("certified A = %d below true η = %d: the certificate would "+
					"falsely bound the threshold", cert.A, tc.eta)
			}
			t.Logf("%s: certified η ≤ %d (pump step %d, |θ| = %d, true η = %d)",
				tc.name, cert.A, cert.B, cert.Theta.Size(), tc.eta)
		})
	}
}

// TestFindChainOnZoo runs the Theorem 4.5 (Lemma 4.1/4.2) pipeline, which
// also handles protocols with leaders.
func TestFindChainOnZoo(t *testing.T) {
	cases := []struct {
		name string
		e    protocols.Entry
		eta  int64 // 0 if not a threshold protocol
	}{
		{"flock(3)", protocols.FlockOfBirds(3), 3},
		{"succinct(2)", protocols.Succinct(2), 4},
		{"leader-flock(2)", protocols.LeaderFlock(2), 2},
		{"leader-flock(3)", protocols.LeaderFlock(3), 3},
		{"parity", protocols.Parity(), 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			p := tc.e.Protocol
			cert, err := FindChain(p, FindOptions{Seed: 11})
			if err != nil {
				t.Fatalf("FindChain: %v", err)
			}
			if err := CheckChain(p, cert, nil); err != nil {
				t.Fatalf("CheckChain: %v", err)
			}
			if cert.B < 1 {
				t.Fatalf("B = %d", cert.B)
			}
			if tc.eta > 0 && cert.A < tc.eta {
				t.Fatalf("certified A = %d below true η = %d", cert.A, tc.eta)
			}
			t.Logf("%s: chain certificate A = %d, B = %d", tc.name, cert.A, cert.B)
		})
	}
}

// TestConstantProtocolUsesEmptyTheta: when x ∈ S the finder uses the empty
// θ with B = 1 — the degenerate but valid pump.
func TestConstantProtocolUsesEmptyTheta(t *testing.T) {
	e := protocols.Constant(true)
	cert, err := FindLeaderless(e.Protocol, FindOptions{Seed: 3})
	if err != nil {
		t.Fatalf("FindLeaderless: %v", err)
	}
	if len(cert.Theta) != 0 || cert.B != 1 {
		t.Fatalf("expected empty θ with B = 1, got |θ|=%d B=%d", cert.Theta.Size(), cert.B)
	}
	if err := CheckLeaderless(e.Protocol, cert, nil); err != nil {
		t.Fatalf("CheckLeaderless: %v", err)
	}
}

// TestCheckersRejectTampering corrupts every certificate field in turn and
// requires the checkers to reject.
func TestCheckersRejectTampering(t *testing.T) {
	e := protocols.FlockOfBirds(3)
	p := e.Protocol
	good, err := FindLeaderless(p, FindOptions{Seed: 17})
	if err != nil {
		t.Fatalf("FindLeaderless: %v", err)
	}
	analysis, err := stable.Analyze(p, stable.Options{})
	if err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(c *LeaderlessCertificate){
		"zero B":          func(c *LeaderlessCertificate) { c.B = 0 },
		"wrong A":         func(c *LeaderlessCertificate) { c.A++ },
		"truncated pathD": func(c *LeaderlessCertificate) { c.PathToD = c.PathToD[:len(c.PathToD)/2] },
		"tampered stable": func(c *LeaderlessCertificate) { c.Stable = c.Stable.Add(c.Db) },
		"tampered Db":     func(c *LeaderlessCertificate) { c.Db = c.Db.Scale(2) },
		"base on S": func(c *LeaderlessCertificate) {
			for q := range c.S {
				c.Base[q] = 1
				break
			}
		},
		"extra theta": func(c *LeaderlessCertificate) {
			// Inflate θ so Db ≠ IC(B) + Δθ (and saturation may fail).
			for tIdx := 0; tIdx < p.NumTransitions(); tIdx++ {
				if !p.Displacement(tIdx).IsZero() {
					c.Theta = c.Theta.Add(realise.TransitionMultiset{tIdx: 50})
					break
				}
			}
		},
		"shrunk S": func(c *LeaderlessCertificate) {
			for q := range c.S {
				delete(c.S, q)
				break
			}
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			bad := cloneLeaderless(good)
			mutate(bad)
			if err := CheckLeaderless(p, bad, analysis); err == nil {
				t.Fatal("tampered certificate accepted")
			}
		})
	}
	// The untouched certificate still verifies (mutations copied deeply).
	if err := CheckLeaderless(p, good, analysis); err != nil {
		t.Fatalf("original certificate broken by tests: %v", err)
	}
}

func TestChainCheckerRejectsTampering(t *testing.T) {
	e := protocols.Succinct(2)
	p := e.Protocol
	good, err := FindChain(p, FindOptions{Seed: 11})
	if err != nil {
		t.Fatalf("FindChain: %v", err)
	}
	analysis, err := stable.Analyze(p, stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(c *ChainCertificate){
		"zero B":       func(c *ChainCertificate) { c.B = 0 },
		"small A":      func(c *ChainCertificate) { c.A = 1 },
		"swap configs": func(c *ChainCertificate) { c.Ca, c.Cb = c.Cb, c.Ca },
		"tampered Cb":  func(c *ChainCertificate) { c.Cb = c.Cb.Add(c.Cb) },
		"drop path":    func(c *ChainCertificate) { c.PathCaToCb = nil },
		"unrelated Ca": func(c *ChainCertificate) { c.Ca = p.InitialConfigN(c.A) },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			bad := cloneChain(good)
			mutate(bad)
			if err := CheckChain(p, bad, analysis); err == nil {
				t.Fatal("tampered certificate accepted")
			}
		})
	}
	if err := CheckChain(p, good, analysis); err != nil {
		t.Fatalf("original certificate broken by tests: %v", err)
	}
}

func TestFindChainNoConvergence(t *testing.T) {
	// The oscillator never stabilises: the chain cannot even start.
	b := protocol.NewBuilder("oscillator")
	u := b.AddState("u", 0)
	v := b.AddState("v", 1)
	b.AddTransition(u, u, v, v)
	b.AddTransition(v, v, u, u)
	b.AddInput("x", u)
	p := b.CompleteWithIdentity().MustBuild()
	_, err := FindChain(p, FindOptions{Seed: 1, SimMaxSteps: 2000, MaxChain: 4})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
}

// TestFindersInterrupted pins FindOptions.Interrupt: closed before the
// call, each finder returns an error and no certificate, whether it
// computes the stable-set analysis itself or is handed one (then its own
// scans must notice); left nil, the same calls still find a certificate.
func TestFindersInterrupted(t *testing.T) {
	p := protocols.FlockOfBirds(3).Protocol
	analysis, err := stable.Analyze(p, stable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	basis, err := realise.Basis(p, dioph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	close(closed)
	for _, tc := range []struct {
		name string
		opts FindOptions
	}{
		{"computed", FindOptions{}},
		{"injected", FindOptions{Analysis: analysis, Basis: basis}},
	} {
		chain, leaderless := tc.opts, tc.opts
		chain.Seed, leaderless.Seed = 11, 17
		if _, err := FindChain(p, chain); err != nil {
			t.Fatalf("%s: FindChain: %v", tc.name, err)
		}
		if _, err := FindLeaderless(p, leaderless); err != nil {
			t.Fatalf("%s: FindLeaderless: %v", tc.name, err)
		}
		chain.Interrupt, leaderless.Interrupt = closed, closed
		if cert, err := FindChain(p, chain); err == nil || cert != nil {
			t.Errorf("%s: interrupted FindChain = %v, %v; want an error and no certificate", tc.name, cert, err)
		}
		if cert, err := FindLeaderless(p, leaderless); err == nil || cert != nil {
			t.Errorf("%s: interrupted FindLeaderless = %v, %v; want an error and no certificate", tc.name, cert, err)
		}
	}
}

func TestFindersRejectWrongShape(t *testing.T) {
	if _, err := FindChain(protocols.Majority().Protocol, FindOptions{}); err == nil {
		t.Fatal("FindChain must reject two-input protocols")
	}
	if _, err := FindLeaderless(protocols.LeaderFlock(2).Protocol, FindOptions{}); err == nil {
		t.Fatal("FindLeaderless must reject leader protocols")
	}
	if err := CheckChain(protocols.Majority().Protocol, &ChainCertificate{A: 2, B: 1}, nil); err == nil {
		t.Fatal("CheckChain must reject two-input protocols")
	}
	if err := CheckLeaderless(protocols.LeaderFlock(2).Protocol, &LeaderlessCertificate{A: 2, B: 1}, nil); err == nil {
		t.Fatal("CheckLeaderless must reject leader protocols")
	}
}

func cloneLeaderless(c *LeaderlessCertificate) *LeaderlessCertificate {
	out := &LeaderlessCertificate{
		A:            c.A,
		B:            c.B,
		PathToD:      append([]int(nil), c.PathToD...),
		D:            c.D.Clone(),
		PathToStable: append([]int(nil), c.PathToStable...),
		Stable:       c.Stable.Clone(),
		Base:         c.Base.Clone(),
		S:            map[int]bool{},
		Da:           c.Da.Clone(),
		Theta:        realise.TransitionMultiset{},
		Db:           c.Db.Clone(),
	}
	for k, v := range c.S {
		out.S[k] = v
	}
	for k, v := range c.Theta {
		out.Theta[k] = v
	}
	return out
}

func cloneChain(c *ChainCertificate) *ChainCertificate {
	out := &ChainCertificate{
		A:          c.A,
		B:          c.B,
		Ca:         c.Ca.Clone(),
		Cb:         c.Cb.Clone(),
		S:          map[int]bool{},
		PathToCa:   append([]int(nil), c.PathToCa...),
		PathCaToCb: append([]int(nil), c.PathCaToCb...),
	}
	for k, v := range c.S {
		out.S[k] = v
	}
	return out
}
