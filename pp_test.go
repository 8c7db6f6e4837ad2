package pp_test

import (
	"fmt"
	"strings"
	"testing"

	pp "repro"
	"repro/internal/multiset"
)

// TestFacadeEndToEnd drives the whole public API surface: build, verify,
// simulate, analyse, certify.
func TestFacadeEndToEnd(t *testing.T) {
	e := pp.Succinct(2) // x ≥ 4 with 4 states
	p := e.Protocol

	// Exact verification for all inputs up to 8.
	rep, err := pp.Verify(p, e.Pred, 2, 8, 0)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.AllOK() {
		t.Fatalf("verification failed:\n%s", rep)
	}

	// Exact stable-set oracle + simulation.
	analysis, err := pp.AnalyzeStableSets(p)
	if err != nil {
		t.Fatalf("AnalyzeStableSets: %v", err)
	}
	st, err := pp.Simulate(p, p.InitialConfigN(20), pp.SimOptions{Seed: 5, Oracle: analysis})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if !st.Converged || st.Output != 1 {
		t.Fatalf("simulation: %+v", st)
	}

	// Observed threshold matches the predicate.
	eta, found, err := pp.ObservedThreshold(p, 9, 0)
	if err != nil || !found || eta != 4 {
		t.Fatalf("ObservedThreshold = %d,%t,%v; want 4", eta, found, err)
	}

	// Pumping certificates, both pipelines.
	ll, err := pp.FindLeaderlessCertificate(p, pp.PumpOptions{Seed: 1})
	if err != nil {
		t.Fatalf("FindLeaderlessCertificate: %v", err)
	}
	if err := pp.CheckLeaderlessCertificate(p, ll, nil); err != nil {
		t.Fatalf("CheckLeaderlessCertificate: %v", err)
	}
	ch, err := pp.FindChainCertificate(p, pp.PumpOptions{Seed: 1})
	if err != nil {
		t.Fatalf("FindChainCertificate: %v", err)
	}
	if err := pp.CheckChainCertificate(p, ch, nil); err != nil {
		t.Fatalf("CheckChainCertificate: %v", err)
	}
}

func TestFacadeBuilderAndJSON(t *testing.T) {
	b := pp.NewBuilder("demo")
	q0 := b.AddState("no", 0)
	q1 := b.AddState("yes", 1)
	b.AddTransition(q0, q0, q1, q1)
	b.AddTransition(q0, q1, q1, q1)
	b.AddInput("x", q0)
	p, err := b.CompleteWithIdentity().Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	q, err := pp.ParseProtocol(data)
	if err != nil {
		t.Fatalf("ParseProtocol: %v", err)
	}
	if q.NumStates() != 2 {
		t.Fatalf("round trip: %d states", q.NumStates())
	}
}

func TestFacadeBounds(t *testing.T) {
	if pp.Beta(1).String() != "8192" {
		t.Fatalf("Beta(1) = %s", pp.Beta(1))
	}
	if pp.Xi(3, 2).Int64() != 98 {
		t.Fatalf("Xi(3,2) = %s", pp.Xi(3, 2))
	}
	if pp.Theorem59Bound(2, 3).Mantissa.Int64() != 1764 {
		t.Fatalf("Theorem59Bound mantissa = %s", pp.Theorem59Bound(2, 3).Mantissa)
	}
}

func TestFacadeSaturationAndRealisability(t *testing.T) {
	e := pp.FlockOfBirds(4)
	p := e.Protocol
	res, err := pp.Saturate(p)
	if err != nil {
		t.Fatalf("Saturate: %v", err)
	}
	if !p.Saturated(res.Config, 1) {
		t.Fatal("saturation witness invalid")
	}
	basis, err := pp.RealisableBasis(p)
	if err != nil {
		t.Fatalf("RealisableBasis: %v", err)
	}
	if len(basis) == 0 {
		t.Fatal("empty realisable basis")
	}
}

func TestFacadeConcurrentSimAndVerify(t *testing.T) {
	e := pp.Succinct(2)
	p := e.Protocol
	stats, err := pp.SimulateConcurrent(p, p.InitialConfigN(12), 4, pp.SimOptions{Seed: 3}, 2)
	if err != nil {
		t.Fatalf("SimulateConcurrent: %v", err)
	}
	for _, st := range stats {
		if !st.Converged || st.Output != 1 {
			t.Fatalf("bad run: %+v", st)
		}
	}
	rep, err := pp.Verify(p, e.Pred, 2, 6, 0)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !rep.AllOK() {
		t.Fatalf("verification failed:\n%s", rep)
	}
}

func TestFacadeTraceCSVAndDOT(t *testing.T) {
	e := pp.Parity()
	p := e.Protocol
	st, err := pp.Simulate(p, p.InitialConfigN(5), pp.SimOptions{Seed: 1, TraceEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := pp.WriteTraceCSV(&csv, p, st); err != nil {
		t.Fatalf("WriteTraceCSV: %v", err)
	}
	if !strings.HasPrefix(csv.String(), "interactions,") {
		t.Fatalf("csv header: %q", csv.String()[:30])
	}
	var dot strings.Builder
	if err := p.WriteDOT(&dot); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	if !strings.Contains(dot.String(), "digraph") {
		t.Fatal("DOT output malformed")
	}
}

func TestFacadePredicates(t *testing.T) {
	if !pp.Counting(3).Eval(multiset.Vec{5}) || pp.Counting(3).Eval(multiset.Vec{2}) {
		t.Fatal("Counting wrong")
	}
	if !pp.ModCounting(3, 1).Eval(multiset.Vec{4}) {
		t.Fatal("ModCounting wrong")
	}
	if !pp.MajorityPred().Eval(multiset.Vec{3, 2}) {
		t.Fatal("MajorityPred wrong")
	}
}

// ExampleSimulate demonstrates the quickest route from a zoo protocol to a
// simulated verdict.
func ExampleSimulate() {
	e := pp.FlockOfBirds(5) // computes x ≥ 5
	p := e.Protocol
	st, err := pp.Simulate(p, p.InitialConfigN(8), pp.SimOptions{Seed: 42})
	if err != nil {
		panic(err)
	}
	fmt.Println("stable output:", st.Output)
	// Output: stable output: 1
}

// ExampleVerify demonstrates exact verification by bottom-SCC analysis.
func ExampleVerify() {
	e := pp.Majority()
	rep, err := pp.Verify(e.Protocol, e.Pred, 2, 6, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println("all inputs correct:", rep.AllOK())
	// Output: all inputs correct: true
}

// TestEngineFacade drives the analysis engine through the public facade:
// registry resolution, a user-registered constructor, request execution,
// and the content-hash cache.
func TestEngineFacade(t *testing.T) {
	reg := pp.NewRegistry()
	if err := reg.Register("twice", func(args []string) (pp.Entry, error) {
		if len(args) != 1 {
			return pp.Entry{}, fmt.Errorf("twice needs one argument")
		}
		var eta int64
		if _, err := fmt.Sscanf(args[0], "%d", &eta); err != nil {
			return pp.Entry{}, err
		}
		return pp.FlockOfBirds(2 * eta), nil
	}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	eng := pp.NewEngineWithRegistry(reg)

	res, err := eng.Do(t.Context(), pp.Request{
		Kind:     pp.KindSimulate,
		Protocol: pp.ProtocolRef{Spec: "twice:3"}, // flock-of-birds, η = 6
		Input:    []int64{10},
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if !res.Simulation.Converged || res.Simulation.Output != 1 {
		t.Fatalf("twice:3 on 10 agents should accept: %+v", res.Simulation)
	}
	if res.Protocol.States != 7 {
		t.Errorf("twice:3 should have 7 states, got %d", res.Protocol.States)
	}

	// Second stable request hits the cache through the facade too.
	for i, wantHit := range []bool{false, true} {
		res, err := eng.Do(t.Context(), pp.Request{Kind: pp.KindStable, Protocol: pp.ProtocolRef{Spec: "twice:3"}})
		if err != nil {
			t.Fatalf("stable %d: %v", i, err)
		}
		if res.CacheHit != wantHit {
			t.Errorf("stable request %d: cacheHit=%t, want %t", i, res.CacheHit, wantHit)
		}
	}
}
