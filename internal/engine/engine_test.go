package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/multiset"
	"repro/internal/protocol"
	"repro/internal/protocols"
	"repro/internal/pump"
	"repro/internal/sim"
	"repro/internal/stable"
)

// TestSimulateRunsRouteThroughReplicaExecutor pins the engine's multi-run
// path to the replica executor: the estimate of a runs>1 request must be
// exactly sim.RunReplicas on the same workload (same replica seeds, same
// aggregate), with the executor's throughput fields populated.
func TestSimulateRunsRouteThroughReplicaExecutor(t *testing.T) {
	eng := New()
	res := do(t, eng, Request{
		Kind:     KindSimulate,
		Protocol: ProtocolRef{Spec: "flock:4"},
		Input:    []int64{16},
		Seed:     9,
		Runs:     5,
	})
	est := res.Simulation.Estimate
	if est == nil {
		t.Fatalf("runs>1 should return an estimate: %+v", res.Simulation)
	}
	e, err := protocols.FromName("flock:4")
	if err != nil {
		t.Fatal(err)
	}
	p := e.Protocol
	want, err := sim.RunReplicas(p, p.InitialConfig(multiset.Vec{16}), 5, sim.Options{Seed: 9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := sim.Estimate{
		Runs: est.Runs, Converged: est.Converged, Output: est.Output,
		MeanParallel: est.MeanParallel, MedianParallel: est.MedianParallel,
		P95Parallel: est.P95Parallel, MaxParallel: est.MaxParallel,
		TotalInteractions: est.TotalInteractions, MeanInteractions: est.MeanInteractions,
	}
	if got != want {
		t.Fatalf("engine estimate %+v, want the replica executor's %+v", got, want)
	}
	if est.TotalInteractions <= 0 || est.MeanInteractions <= 0 {
		t.Fatalf("executor throughput fields missing: %+v", est)
	}
}

// do runs a request on the engine and fails the test on error.
func do(t *testing.T, eng *Engine, req Request) *Result {
	t.Helper()
	res, err := eng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// inlineParity returns the parity protocol as compact inline JSON.
func inlineParity(t *testing.T) json.RawMessage {
	t.Helper()
	e, err := protocols.FromName("parity")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(e.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// roundTripRequests is one request of every kind, with the fields that
// kind reads set.
func roundTripRequests() map[Kind]Request {
	pred := &PredicateSpec{Kind: "counting", Threshold: 5}
	return map[Kind]Request{
		KindSimulate: {
			Kind:     KindSimulate,
			Protocol: ProtocolRef{Spec: "flock:8"},
			Input:    []int64{20},
			Seed:     7, MaxSteps: 1000, Runs: 3, ExactOracle: true, TraceEvery: 50,
			TimeoutMillis: 2500,
		},
		KindVerify: {
			Kind:      KindVerify,
			Protocol:  ProtocolRef{Inline: json.RawMessage(`{"name":"p","states":[{"name":"a","output":1}],"transitions":[],"inputs":{"x":"a"}}`)},
			Predicate: pred,
			MinSize:   2, MaxSize: 9, Limit: 100,
		},
		KindStable:            {Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:7"}},
		KindCertifyChain:      {Kind: KindCertifyChain, Protocol: ProtocolRef{Spec: "leaderflock:3"}, Seed: 11},
		KindCertifyLeaderless: {Kind: KindCertifyLeaderless, Protocol: ProtocolRef{Spec: "flock:4"}, Seed: 2},
		KindSaturate:          {Kind: KindSaturate, Protocol: ProtocolRef{Spec: "parity"}},
		KindBasis:             {Kind: KindBasis, Protocol: ProtocolRef{Spec: "succinct:3"}},
		KindBounds:            {Kind: KindBounds, States: 4, Transitions: 10},
		KindCover:             {Kind: KindCover, Protocol: ProtocolRef{Spec: "flock:4"}, Input: []int64{6}, Limit: 500},
	}
}

// TestRequestJSONRoundTrip is the acceptance check: a Request marshals to
// JSON and back losslessly for every Kind.
func TestRequestJSONRoundTrip(t *testing.T) {
	requests := roundTripRequests()
	if len(requests) != len(Kinds) {
		t.Fatalf("round-trip table covers %d kinds, want %d", len(requests), len(Kinds))
	}
	for kind, req := range requests {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%s: marshal: %v", kind, err)
		}
		var back Request
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", kind, err)
		}
		if !reflect.DeepEqual(req, back) {
			t.Errorf("%s: lossy round trip:\n  in:  %+v\n  out: %+v\n  json: %s", kind, req, back, data)
		}
		// And once more, to catch marshalling that is itself lossy.
		data2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", kind, err)
		}
		if string(data) != string(data2) {
			t.Errorf("%s: JSON not stable under round trip: %s vs %s", kind, data, data2)
		}
	}
}

// TestEngineCacheHit is the acceptance check: a second identical stable or
// basis request hits the engine cache.
func TestEngineCacheHit(t *testing.T) {
	eng := New()

	r1 := do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:6"}})
	if r1.CacheHit {
		t.Error("first stable request must be a cache miss")
	}
	r2 := do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:6"}})
	if !r2.CacheHit {
		t.Error("second identical stable request must hit the cache")
	}
	if !reflect.DeepEqual(r1.Stable, r2.Stable) {
		t.Error("cached stable result differs from computed one")
	}

	b1 := do(t, eng, Request{Kind: KindBasis, Protocol: ProtocolRef{Spec: "succinct:2"}})
	if b1.CacheHit {
		t.Error("first basis request must be a cache miss")
	}
	b2 := do(t, eng, Request{Kind: KindBasis, Protocol: ProtocolRef{Spec: "succinct:2"}})
	if !b2.CacheHit {
		t.Error("second identical basis request must hit the cache")
	}

	hits, misses := eng.CacheStats()
	if hits != 2 || misses != 2 {
		t.Errorf("cache stats: hits=%d misses=%d, want 2/2", hits, misses)
	}
}

// TestCacheSharedAcrossRefForms: the same protocol referenced by spec and
// by inline JSON shares one cache slot (content addressing).
func TestCacheSharedAcrossRefForms(t *testing.T) {
	eng := New()
	ctx := context.Background()
	if _, err := eng.Do(ctx, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "parity"}}); err != nil {
		t.Fatal(err)
	}
	res := do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Inline: inlineParity(t)}})
	if !res.CacheHit {
		t.Error("inline reference to the same protocol should hit the spec-warmed cache")
	}
}

// TestProtocolInfoMemoizedPerResult: a builtin spec's ProtocolInfo is
// built once and memoized, but every Result gets its own copy, so a caller
// editing one cannot change what the next request reports.
func TestProtocolInfoMemoizedPerResult(t *testing.T) {
	eng := New()
	req := Request{Kind: KindSimulate, Protocol: ProtocolRef{Spec: "flock:4"}, Input: []int64{8}, Seed: 3}
	first := do(t, eng, req)
	want := *first.Protocol
	if want.Predicate == "" || want.Hash == "" || want.States != 5 {
		t.Fatalf("protocol info incomplete: %+v", want)
	}
	first.Protocol.Name, first.Protocol.Predicate = "edited", "edited"
	second := do(t, eng, req)
	if second.Protocol == first.Protocol {
		t.Fatal("two results share one ProtocolInfo")
	}
	if *second.Protocol != want {
		t.Errorf("second request's info = %+v, want %+v", *second.Protocol, want)
	}
}

func TestSimulate(t *testing.T) {
	eng := New()
	res := do(t, eng, Request{
		Kind:     KindSimulate,
		Protocol: ProtocolRef{Spec: "flock:4"},
		Input:    []int64{8},
		Seed:     3,
	})
	s := res.Simulation
	if s == nil || !s.Converged || s.Output != 1 {
		t.Fatalf("flock:4 on 8 agents should converge to 1: %+v", s)
	}
	if res.Protocol == nil || res.Protocol.States != 5 || res.Protocol.Hash == "" {
		t.Errorf("protocol info incomplete: %+v", res.Protocol)
	}
	if s.FinalFormatted == "" {
		t.Error("missing formatted final configuration")
	}

	// Multi-run estimate.
	res = do(t, eng, Request{
		Kind:     KindSimulate,
		Protocol: ProtocolRef{Spec: "majority"},
		Input:    []int64{5, 2},
		Runs:     3,
	})
	if res.Simulation.Estimate == nil || res.Simulation.Estimate.Runs != 3 {
		t.Fatalf("runs>1 should return an estimate: %+v", res.Simulation)
	}

	// Exact oracle path warms the stable cache.
	res = do(t, eng, Request{
		Kind:     KindSimulate,
		Protocol: ProtocolRef{Spec: "succinct:2"},
		Input:    []int64{9},
		Seed:     3, ExactOracle: true,
	})
	if !res.Simulation.Converged {
		t.Error("exact-oracle simulation should converge")
	}
	res = do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "succinct:2"}})
	if !res.CacheHit {
		t.Error("stable request after exact-oracle simulate should hit the cache")
	}
}

func TestVerify(t *testing.T) {
	eng := New()
	ctx := context.Background()

	// Registry protocols default to their own predicate and bound.
	res := do(t, eng, Request{Kind: KindVerify, Protocol: ProtocolRef{Spec: "majority"}})
	v := res.Verification
	if v == nil || !v.AllOK || v.Inputs == 0 {
		t.Fatalf("majority verification failed: %+v", v)
	}

	// Inline protocols need an explicit predicate.
	_, err := eng.Do(ctx, Request{Kind: KindVerify, Protocol: ProtocolRef{Inline: inlineParity(t)}})
	if !errors.Is(err, ErrBadRequest) {
		t.Errorf("inline verify without predicate: want ErrBadRequest, got %v", err)
	}
	res = do(t, eng, Request{
		Kind:      KindVerify,
		Protocol:  ProtocolRef{Inline: inlineParity(t)},
		Predicate: &PredicateSpec{Kind: "mod", Modulus: 2, Residue: 1},
		MaxSize:   6,
	})
	if !res.Verification.AllOK {
		t.Errorf("parity vs x≡1 (mod 2) should verify: %s", res.Verification.Summary)
	}

	// A wrong predicate is reported, not an error.
	res = do(t, eng, Request{
		Kind:      KindVerify,
		Protocol:  ProtocolRef{Spec: "parity"},
		Predicate: &PredicateSpec{Kind: "counting", Threshold: 3},
		MaxSize:   5,
	})
	if res.Verification.AllOK || len(res.Verification.Failures) == 0 {
		t.Errorf("parity vs x≥3 should fail verification: %+v", res.Verification)
	}
}

// TestCertify also re-checks each certificate against a fresh stable-set
// analysis: the engine relies on the finders' own self-check, made on the
// analysis it injected.
func TestCertify(t *testing.T) {
	eng := New()
	resolve := func(spec string) *protocol.Protocol {
		entry, err := eng.Resolve(ProtocolRef{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		return entry.Protocol
	}
	res := do(t, eng, Request{Kind: KindCertifyLeaderless, Protocol: ProtocolRef{Spec: "flock:3"}, Seed: 1})
	c := res.Certificate
	if c == nil || c.Pipeline != "leaderless" || c.Leaderless == nil || c.A < 3 {
		t.Fatalf("bad leaderless certificate: %+v", c)
	}
	if err := pump.CheckLeaderless(resolve("flock:3"), c.Leaderless, nil); err != nil {
		t.Fatalf("leaderless certificate fails an independent check: %v", err)
	}
	res = do(t, eng, Request{Kind: KindCertifyChain, Protocol: ProtocolRef{Spec: "leaderflock:3"}, Seed: 1})
	c = res.Certificate
	if c == nil || c.Pipeline != "chain" || c.Chain == nil || c.B < 1 {
		t.Fatalf("bad chain certificate: %+v", c)
	}
	if err := pump.CheckChain(resolve("leaderflock:3"), c.Chain, nil); err != nil {
		t.Fatalf("chain certificate fails an independent check: %v", err)
	}
}

func TestSaturateAndBounds(t *testing.T) {
	eng := New()
	res := do(t, eng, Request{Kind: KindSaturate, Protocol: ProtocolRef{Spec: "flock:3"}})
	if res.Saturation == nil || res.Saturation.Stages < 1 || len(res.Saturation.Config) == 0 {
		t.Fatalf("bad saturation witness: %+v", res.Saturation)
	}

	// Bounds from a protocol.
	res = do(t, eng, Request{Kind: KindBounds, Protocol: ProtocolRef{Spec: "succinct:3"}})
	if res.Bounds == nil || res.Bounds.States != 5 || res.Bounds.Beta == "" {
		t.Fatalf("bad bounds: %+v", res.Bounds)
	}
	// Bounds protocol-free.
	res = do(t, eng, Request{Kind: KindBounds, States: 4})
	if res.Bounds.Transitions != 10 { // default n(n+1)/2
		t.Errorf("default transition count: got %d, want 10", res.Bounds.Transitions)
	}
	if res.Protocol != nil {
		t.Error("protocol-free bounds should carry no protocol info")
	}
}

func TestBadRequests(t *testing.T) {
	eng := New()
	ctx := context.Background()
	cases := map[string]Request{
		"unknown kind":     {Kind: "zzz", Protocol: ProtocolRef{Spec: "parity"}},
		"missing protocol": {Kind: KindSimulate, Input: []int64{4}},
		"both refs":        {Kind: KindStable, Protocol: ProtocolRef{Spec: "parity", Inline: inlineParity(t)}},
		"bad spec":         {Kind: KindStable, Protocol: ProtocolRef{Spec: "zzz"}},
		"bad inline":       {Kind: KindStable, Protocol: ProtocolRef{Inline: json.RawMessage(`{"states": 3}`)}},
		"arity mismatch":   {Kind: KindSimulate, Protocol: ProtocolRef{Spec: "majority"}, Input: []int64{4}},
		"negative input":   {Kind: KindSimulate, Protocol: ProtocolRef{Spec: "parity"}, Input: []int64{-3}},
		"one agent":        {Kind: KindSimulate, Protocol: ProtocolRef{Spec: "parity"}, Input: []int64{1}},
		"bad predicate":    {Kind: KindVerify, Protocol: ProtocolRef{Spec: "parity"}, Predicate: &PredicateSpec{Kind: "zzz"}},
		"bounds no states": {Kind: KindBounds},
		"size inversion":   {Kind: KindVerify, Protocol: ProtocolRef{Spec: "parity"}, MinSize: 9, MaxSize: 3},
	}
	for name, req := range cases {
		if _, err := eng.Do(ctx, req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: want ErrBadRequest, got %v", name, err)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	eng := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Do(ctx, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "parity"}}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: want context.Canceled, got %v", err)
	}

	// A request-level timeout interrupts a long-running analysis.
	start := time.Now()
	_, err := eng.Do(context.Background(), Request{
		Kind:          KindVerify,
		Protocol:      ProtocolRef{Spec: "binary:12"},
		MaxSize:       64,
		TimeoutMillis: 30,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout: want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout did not interrupt promptly: %v", elapsed)
	}
}

func TestUserRegisteredConstructor(t *testing.T) {
	reg := protocols.NewRegistry()
	if err := reg.Register("evens", func(args []string) (protocols.Entry, error) {
		return protocols.ModuloIn(2, 0), nil
	}); err != nil {
		t.Fatal(err)
	}
	eng := NewWithRegistry(reg)
	res := do(t, eng, Request{
		Kind:     KindSimulate,
		Protocol: ProtocolRef{Spec: "evens"},
		Input:    []int64{6},
		Seed:     1,
	})
	if !res.Simulation.Converged || res.Simulation.Output != 1 {
		t.Errorf("evens on 6 agents should output 1: %+v", res.Simulation)
	}
}

func TestConcurrentRequestsComputeArtifactOnce(t *testing.T) {
	eng := New()
	ctx := context.Background()
	const workers = 8
	errs := make(chan error, workers)
	for range workers {
		go func() {
			_, err := eng.Do(ctx, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:7"}})
			errs <- err
		}()
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.Computations(); n != 1 {
		t.Errorf("concurrent identical requests ran %d computations, want 1", n)
	}
	hits, misses := eng.CacheStats()
	if hits+misses != workers || misses < 1 {
		t.Errorf("cache stats hits=%d misses=%d, want %d lookups with ≥1 miss", hits, misses, workers)
	}
}

func TestResultMarshalsToJSON(t *testing.T) {
	eng := New()
	for _, req := range []Request{
		{Kind: KindSimulate, Protocol: ProtocolRef{Spec: "flock:3"}, Input: []int64{6}, Seed: 1},
		{Kind: KindVerify, Protocol: ProtocolRef{Spec: "parity"}, MaxSize: 5},
		{Kind: KindStable, Protocol: ProtocolRef{Spec: "parity"}},
		{Kind: KindCertifyLeaderless, Protocol: ProtocolRef{Spec: "flock:3"}},
		{Kind: KindSaturate, Protocol: ProtocolRef{Spec: "parity"}},
		{Kind: KindBasis, Protocol: ProtocolRef{Spec: "parity"}},
		{Kind: KindBounds, States: 3},
	} {
		res := do(t, eng, req)
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: result does not marshal: %v", req.Kind, err)
		}
		if !strings.Contains(string(data), `"kind"`) {
			t.Errorf("%s: suspicious result JSON: %s", req.Kind, data)
		}
	}
}

// TestCacheEviction: the artifact cache stays bounded, and an evicted
// protocol recomputes on the next request.
func TestCacheEviction(t *testing.T) {
	eng := New()
	eng.SetCacheLimit(2)
	ctx := context.Background()
	for _, spec := range []string{"parity", "true", "false"} {
		if _, err := eng.Do(ctx, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: spec}}); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
	eng.mu.Lock()
	size := len(eng.cache)
	eng.mu.Unlock()
	if size > 2 {
		t.Errorf("cache holds %d entries, limit 2", size)
	}
	// At least one of the three protocols was evicted; re-running all
	// three recomputes the evicted ones (eviction picks arbitrary
	// entries, so a recompute may itself evict a protocol this loop
	// still revisits — hence a range, not an exact count).
	_, missesBefore := eng.CacheStats()
	for _, spec := range []string{"parity", "true", "false"} {
		if _, err := eng.Do(ctx, Request{Kind: KindStable, Protocol: ProtocolRef{Spec: spec}}); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
	_, missesAfter := eng.CacheStats()
	if d := missesAfter - missesBefore; d < 1 || d > 3 {
		t.Errorf("re-running three specs after eviction recomputed %d, want 1..3", d)
	}
	eng.mu.Lock()
	size = len(eng.cache)
	eng.mu.Unlock()
	if size > 2 {
		t.Errorf("cache grew to %d entries after re-run, limit 2", size)
	}
}

// TestCertifyUsesArtifactCache: a second certify request for the same
// protocol reuses the memoized stable analysis and basis.
func TestCertifyUsesArtifactCache(t *testing.T) {
	eng := New()
	r1 := do(t, eng, Request{Kind: KindCertifyLeaderless, Protocol: ProtocolRef{Spec: "flock:3"}, Seed: 1})
	if r1.CacheHit {
		t.Error("first certify must be a cache miss")
	}
	computesAfterFirst := eng.Computations()
	r2 := do(t, eng, Request{Kind: KindCertifyLeaderless, Protocol: ProtocolRef{Spec: "flock:3"}, Seed: 2})
	if !r2.CacheHit {
		t.Error("second certify must hit the artifact cache")
	}
	if n := eng.Computations(); n != computesAfterFirst {
		t.Errorf("second certify recomputed artifacts (%d → %d)", computesAfterFirst, n)
	}
	if r2.Certificate == nil || r2.Certificate.A < 3 {
		t.Errorf("cached-path certificate invalid: %+v", r2.Certificate)
	}
}

// TestBoundsStatesCap: protocol-free bounds requests reject absurd state
// counts instead of grinding on astronomically large factorials.
func TestBoundsStatesCap(t *testing.T) {
	eng := New()
	if _, err := eng.Do(context.Background(), Request{Kind: KindBounds, States: 1_000_000}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bounds with 10^6 states: want ErrBadRequest, got %v", err)
	}
	if _, err := eng.Do(context.Background(), Request{Kind: KindBounds, States: 50}); err != nil {
		t.Errorf("bounds with 50 states should work: %v", err)
	}
}

// TestCover: the cover request reproduces experiment E11's measurements —
// shortest covering executions from IC(input), per output.
func TestCover(t *testing.T) {
	eng := New()
	res := do(t, eng, Request{Kind: KindCover, Protocol: ProtocolRef{Spec: "flock:4"}, Input: []int64{6}})
	if res.Cover == nil {
		t.Fatal("no cover payload")
	}
	// From IC(6), flock(4) can cover the output-1 state (6 ≥ 4) and any
	// output-0 state; both need at least one interaction.
	if res.Cover.MaxLen1 < 1 || res.Cover.MaxLen0 < 1 {
		t.Errorf("implausible cover lengths: %+v", res.Cover)
	}
	if _, err := eng.Do(context.Background(), Request{Kind: KindCover, Protocol: ProtocolRef{Spec: "flock:4"}, Input: []int64{6, 1}}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("arity mismatch: want ErrBadRequest, got %v", err)
	}
}

// TestStableCounters: a stable result carries the fixpoint work counters.
func TestStableCounters(t *testing.T) {
	res := do(t, New(), Request{Kind: KindStable, Protocol: ProtocolRef{Spec: "binary:7"}})
	if res.Stable.Iterations0 < 1 || res.Stable.Iterations1 < 1 {
		t.Errorf("iterations must be positive: %+v", res.Stable)
	}
	if res.Stable.Frontier0 < res.Stable.Basis0 || res.Stable.Frontier1 < 1 {
		t.Errorf("frontier counters must cover at least the final bases: %+v", res.Stable)
	}
}

// specMemoLen reports how many resolved builtin specs the engine holds.
func specMemoLen(eng *Engine) int {
	eng.mu.Lock()
	defer eng.mu.Unlock()
	return len(eng.specs)
}

// TestBuiltinSpecMemo: a builtin spec is resolved and hashed once; later
// requests reuse the entry and report the same content hash as a fresh
// resolution.
func TestBuiltinSpecMemo(t *testing.T) {
	e, err := protocols.FromName("flock:5")
	if err != nil {
		t.Fatal(err)
	}
	want := Hash(e.Protocol)
	eng := New()
	for i := 0; i < 2; i++ {
		res := do(t, eng, Request{Kind: KindVerify, Protocol: ProtocolRef{Spec: "flock:5"}, MaxSize: 6})
		if res.Protocol.Hash != want || !res.Verification.AllOK {
			t.Fatalf("request %d: hash %s (want %s), verification %+v", i, res.Protocol.Hash, want, res.Verification)
		}
	}
	if n := specMemoLen(eng); n != 1 {
		t.Fatalf("memo holds %d specs, want 1", n)
	}
}

// TestUserSpecNotMemoized: a user constructor may depend on state outside
// the spec, so it runs on every request.
func TestUserSpecNotMemoized(t *testing.T) {
	reg := protocols.NewRegistry()
	calls := 0
	if err := reg.Register("evens", func(args []string) (protocols.Entry, error) {
		calls++
		return protocols.ModuloIn(2, 0), nil
	}); err != nil {
		t.Fatal(err)
	}
	eng := NewWithRegistry(reg)
	for i := 0; i < 2; i++ {
		do(t, eng, Request{Kind: KindSimulate, Protocol: ProtocolRef{Spec: "evens"}, Input: []int64{6}, Seed: 1})
	}
	if calls != 2 || specMemoLen(eng) != 0 {
		t.Fatalf("constructor ran %d times (want 2), memo holds %d specs (want 0)", calls, specMemoLen(eng))
	}
}

func TestInlineNotMemoized(t *testing.T) {
	eng := New()
	do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Inline: inlineParity(t)}})
	if n := specMemoLen(eng); n != 0 {
		t.Fatalf("memo holds %d specs after an inline request, want 0", n)
	}
}

// TestSpecMemoBounded: the memo shares the artifact cache's bound and is
// cleared when full.
func TestSpecMemoBounded(t *testing.T) {
	eng := New()
	eng.SetCacheLimit(2)
	for _, spec := range []string{"flock:3", "flock:4", "parity", "majority", "binary:5"} {
		do(t, eng, Request{Kind: KindBounds, Protocol: ProtocolRef{Spec: spec}})
		if n := specMemoLen(eng); n > 2 {
			t.Fatalf("after %s: memo holds %d specs, want ≤ 2", spec, n)
		}
	}
}

// inlineOfSize renders an inline protocol body with the given number of
// states and copies of one transition, without building it.
func inlineOfSize(states, transitions int) json.RawMessage {
	var b strings.Builder
	b.WriteString(`{"name":"wide","states":[`)
	for q := 0; q < states; q++ {
		if q > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"q%d","output":%d}`, q, q%2)
	}
	b.WriteString(`],"transitions":[`)
	for i := 0; i < transitions; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`["q0","q0","q0","q1"]`)
	}
	b.WriteString(`],"inputs":{"x":"q0"},"completeWithIdentity":true}`)
	return json.RawMessage(b.String())
}

func TestInlineProtocolSizeCap(t *testing.T) {
	eng := New()
	for _, tc := range []struct {
		states, transitions int
		ok                  bool
	}{
		{maxInlineStates, 1, true},
		{maxInlineStates + 1, 1, false},
		{2, maxInlineTransitions, true},
		{2, maxInlineTransitions + 1, false},
	} {
		e, err := eng.Resolve(ProtocolRef{Inline: inlineOfSize(tc.states, tc.transitions)})
		if tc.ok && (err != nil || e.Protocol.NumStates() != tc.states) {
			t.Errorf("%d states, %d transitions: %v", tc.states, tc.transitions, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadRequest) {
			t.Errorf("%d states, %d transitions: want ErrBadRequest, got %v", tc.states, tc.transitions, err)
		}
	}
}

// TestStableBasisCounts: a stable result's basis0/basis1, counted as the
// sizes of the SC_b decompositions, equal the lengths of the bases
// Analysis.Basis builds, over the protocol catalog.
func TestStableBasisCounts(t *testing.T) {
	eng := New()
	for _, e := range catalogEntries() {
		inline, err := e.Protocol.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		res := do(t, eng, Request{Kind: KindStable, Protocol: ProtocolRef{Inline: inline}})
		a, err := stable.Analyze(e.Protocol, stable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := [2]int{res.Stable.Basis0, res.Stable.Basis1}, [2]int{len(a.Basis(0)), len(a.Basis(1))}; got != want {
			t.Errorf("%s: basis counts %v, Basis lengths %v", e.Protocol.Name(), got, want)
		}
	}
}
