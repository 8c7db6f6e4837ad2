package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"repro/internal/metrics/testutil"
	"repro/internal/protocols"
	"repro/internal/reach"
)

// verifyInputs reads the engine's verify-input counter for one source.
func verifyInputs(eng *Engine, source string) int {
	return int(testutil.ToFloat64(eng.Metrics().VerifyInputs.WithLabelValues(source)))
}

// verificationJSON runs a verify request and returns its payload's bytes.
func verificationJSON(t *testing.T, eng *Engine, req Request) string {
	t.Helper()
	data, err := json.Marshal(do(t, eng, req).Verification)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestVerdictTableMatchesFreshEngine: verify requests on one engine, whose
// verdict table fills as they go, return the same payload (failures
// included) as each request on a fresh engine. The ranges overlap, one
// protocol is checked against two predicates, and one protocol has two
// inputs. A range whose every input an earlier request explored is a
// cache hit that explores nothing.
func TestVerdictTableMatchesFreshEngine(t *testing.T) {
	counting3 := &PredicateSpec{Kind: "counting", Threshold: 3}
	cases := []struct {
		req      Request
		cacheHit bool
	}{
		{Request{Kind: KindVerify, Protocol: ProtocolRef{Spec: "flock:5"}, MaxSize: 8}, false},
		{Request{Kind: KindVerify, Protocol: ProtocolRef{Spec: "flock:5"}, MinSize: 4, MaxSize: 10}, false},
		{Request{Kind: KindVerify, Protocol: ProtocolRef{Spec: "flock:5"}, MaxSize: 6}, true},
		{Request{Kind: KindVerify, Protocol: ProtocolRef{Spec: "flock:5"}, MinSize: 3, MaxSize: 9, Predicate: counting3}, true},
		{Request{Kind: KindVerify, Protocol: ProtocolRef{Spec: "parity"}, MaxSize: 7}, false},
		{Request{Kind: KindVerify, Protocol: ProtocolRef{Spec: "parity"}, MaxSize: 7, Predicate: counting3}, true},
		{Request{Kind: KindVerify, Protocol: ProtocolRef{Spec: "majority"}, MaxSize: 5}, false},
		{Request{Kind: KindVerify, Protocol: ProtocolRef{Spec: "majority"}, MinSize: 4, MaxSize: 7}, false},
		{Request{Kind: KindVerify, Protocol: ProtocolRef{Spec: "majority"}, MinSize: 3, MaxSize: 6}, true},
	}
	warm := New()
	failures := 0
	for i, c := range cases {
		fresh := New()
		want := verificationJSON(t, fresh, c.req)
		if got := verifyInputs(fresh, "table"); got != 0 {
			t.Fatalf("case %d: a fresh engine served %d inputs from its table", i, got)
		}
		explored := verifyInputs(warm, "explored")
		res := do(t, warm, c.req)
		got, err := json.Marshal(res.Verification)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("case %d: warm engine\n%s\nfresh engine\n%s", i, got, want)
		}
		if res.CacheHit != c.cacheHit {
			t.Errorf("case %d: cacheHit %t, want %t", i, res.CacheHit, c.cacheHit)
		}
		if c.cacheHit && verifyInputs(warm, "explored") != explored {
			t.Errorf("case %d: a cache hit explored %d inputs", i, verifyInputs(warm, "explored")-explored)
		}
		failures += len(res.Verification.Failures)
	}
	if failures == 0 {
		t.Fatal("no case reported a failure; the table's failures path went unchecked")
	}
	if verifyInputs(warm, "table") == 0 {
		t.Fatal("the warm engine never read its table")
	}
}

// TestVerdictTableRespectsLimit: after a default-limit verify of flock:7
// over 2..14 recorded every verdict, a request whose limit is one below
// the size-14 graph fails with a fresh engine's exact error (that input is
// explored again, not read), and a limit equal to the graph's size is
// served entirely from the table.
func TestVerdictTableRespectsLimit(t *testing.T) {
	e, err := protocols.FromName("flock:7")
	if err != nil {
		t.Fatal(err)
	}
	g, err := reach.Explore(e.Protocol, e.Protocol.InitialConfigN(14), 0)
	if err != nil {
		t.Fatal(err)
	}
	size14 := g.Len()
	req := Request{Kind: KindVerify, Protocol: ProtocolRef{Spec: "flock:7"}, MaxSize: 14}

	warm := New()
	do(t, warm, req)
	if got := verifyInputs(warm, "explored"); got != 13 {
		t.Fatalf("2..14 explored %d inputs, want 13", got)
	}

	req.Limit = size14 - 1
	_, wantErr := New().Do(context.Background(), req)
	if wantErr == nil {
		t.Fatalf("limit %d below the size-14 graph must fail", req.Limit)
	}
	_, gotErr := warm.Do(context.Background(), req)
	if gotErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("warm engine error %v, want %v", gotErr, wantErr)
	}
	// Sizes 2..13 were read from the table; size 14 was explored and
	// failed, so it counts as neither.
	if table, explored := verifyInputs(warm, "table"), verifyInputs(warm, "explored"); table != 12 || explored != 13 {
		t.Fatalf("after the failing request: %d table, %d explored inputs, want 12 and 13", table, explored)
	}

	req.Limit = size14
	want := verificationJSON(t, New(), req)
	res := do(t, warm, req)
	got, _ := json.Marshal(res.Verification)
	if string(got) != want || !res.CacheHit {
		t.Fatalf("limit %d: warm engine %s (cacheHit %t), fresh engine %s", req.Limit, got, res.CacheHit, want)
	}
}

// TestVerdictTableConcurrent: concurrent verify requests of one protocol
// read and fill its table at once (run under -race) and every one returns
// a fresh engine's payload.
func TestVerdictTableConcurrent(t *testing.T) {
	ranges := [][2]int64{{2, 9}, {5, 11}, {2, 6}, {8, 12}, {3, 10}, {2, 12}}
	want := make([]string, len(ranges))
	reqs := make([]Request, len(ranges))
	for i, r := range ranges {
		reqs[i] = Request{Kind: KindVerify, Protocol: ProtocolRef{Spec: "flock:6"}, MinSize: r[0], MaxSize: r[1]}
		want[i] = verificationJSON(t, New(), reqs[i])
	}
	eng := New()
	const workers = 6
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range reqs {
					i := (k + w) % len(reqs)
					res, err := eng.Do(context.Background(), reqs[i])
					if err != nil {
						errs[w] = err
						return
					}
					got, _ := json.Marshal(res.Verification)
					if string(got) != want[i] {
						errs[w] = fmt.Errorf("range %v: %s, want %s", ranges[i], got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if verifyInputs(eng, "table") == 0 {
		t.Fatal("no request read the shared table")
	}
}
