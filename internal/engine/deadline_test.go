package engine

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestDeadlineFreesSlots pins the deadline contract on the analyses whose
// work has no useful time bound: each one stops on its request's context,
// on the caller's goroutine, so Do returns soon after the deadline with
// every execution slot free and nobody queued, and a small request on the
// same engine afterwards runs at once.
func TestDeadlineFreesSlots(t *testing.T) {
	eng := New()
	eng.SetSlots(2)
	const timeout = 250 * time.Millisecond
	for _, req := range []Request{
		{Kind: KindStable, Protocol: ProtocolRef{Spec: "flock:40"}},
		{Kind: KindCertifyChain, Protocol: ProtocolRef{Spec: "flock:40"}},
		{Kind: KindCertifyLeaderless, Protocol: ProtocolRef{Spec: "flock:40"}},
		{Kind: KindVerify, Protocol: ProtocolRef{Spec: "binary:12"}, MaxSize: 64},
		{Kind: KindSimulate, Protocol: ProtocolRef{Spec: "flock:40"}, Input: []int64{1 << 30}, MaxSteps: 1 << 50},
	} {
		req.TimeoutMillis = timeout.Milliseconds()
		start := time.Now()
		_, err := eng.Do(context.Background(), req)
		late := time.Since(start) - timeout
		busy, _, queued := eng.SlotStats()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s %s: want DeadlineExceeded, got %v", req.Kind, req.Protocol.Spec, err)
		}
		if late > time.Second {
			t.Errorf("%s %s: Do returned %v after the deadline", req.Kind, req.Protocol.Spec, late)
		}
		if busy != 0 || queued != 0 {
			t.Errorf("%s %s: %d slots busy, %d queued when Do returned", req.Kind, req.Protocol.Spec, busy, queued)
		}
	}
	res, err := eng.Do(context.Background(), Request{
		Kind:          KindCertifyLeaderless,
		Protocol:      ProtocolRef{Spec: "binary:12"},
		TimeoutMillis: 10_000,
	})
	if err != nil || res.Certificate == nil {
		t.Fatalf("certify-leaderless binary:12 after the timeouts: %v", err)
	}
}

// TestCertifyLeaderlessOneSlot pins that a cold certify-leaderless request
// never holds one execution slot while it waits for another: with a single
// slot it must finish well inside its deadline, not wait it out.
func TestCertifyLeaderlessOneSlot(t *testing.T) {
	eng := New()
	eng.SetSlots(1)
	res, err := eng.Do(context.Background(), Request{
		Kind:          KindCertifyLeaderless,
		Protocol:      ProtocolRef{Spec: "binary:12"},
		TimeoutMillis: 3000,
	})
	if err != nil || res.Certificate == nil {
		t.Fatalf("certify-leaderless binary:12 on one slot: %v", err)
	}
}
