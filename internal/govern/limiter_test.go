package govern

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock is a hand-driven clock for limiter tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestLimiterBurstThenRefill(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(LimiterOptions{Rate: 2, Burst: 3, JitterFrac: -1, Now: clk.now})

	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("c"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := l.Allow("c")
	if ok {
		t.Fatal("request past the burst allowed")
	}
	// An empty bucket at 2 tokens/s refills one token in 500ms.
	if retry != 500*time.Millisecond {
		t.Fatalf("retryAfter = %v, want 500ms", retry)
	}

	clk.advance(500 * time.Millisecond)
	if ok, _ := l.Allow("c"); !ok {
		t.Fatal("request after refill denied")
	}
	// Bucket empty again; a second immediate request is denied.
	if ok, _ := l.Allow("c"); ok {
		t.Fatal("second request without refill allowed")
	}

	// A long quiet period refills only to the burst cap.
	clk.advance(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := l.Allow("c"); !ok {
			t.Fatalf("post-idle burst request %d denied", i)
		}
	}
	if ok, _ := l.Allow("c"); ok {
		t.Fatal("burst cap not enforced after idle refill")
	}
}

func TestLimiterKeysAreIsolated(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(LimiterOptions{Rate: 1, Burst: 1, Now: clk.now})
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("first a denied")
	}
	if ok, _ := l.Allow("a"); ok {
		t.Fatal("second a allowed")
	}
	// b's bucket is untouched by a's exhaustion.
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("first b denied")
	}
}

func TestLimiterKeyTableBounded(t *testing.T) {
	clk := newFakeClock()
	l := NewLimiter(LimiterOptions{Rate: 1, Burst: 1, MaxKeys: 8, Now: clk.now})
	for i := 0; i < 100; i++ {
		l.Allow(fmt.Sprintf("client-%d", i))
	}
	if got := l.Keys(); got > 8 {
		t.Fatalf("limiter tracks %d keys, bound is 8", got)
	}
	// The most recent keys survive; the oldest were dropped.
	if ok, _ := l.Allow("client-99"); ok {
		t.Fatal("recent client's exhausted bucket was dropped")
	}
}

func TestLimiterRetryAfterJitterDeterministic(t *testing.T) {
	mk := func() *Limiter {
		clk := newFakeClock()
		return NewLimiter(LimiterOptions{Rate: 1, Burst: 1, JitterFrac: 0.5, Now: clk.now})
	}
	a, b := mk(), mk()
	a.Allow("c")
	b.Allow("c")
	// Same client, same denial sequence → identical jittered Retry-After.
	_, r1 := a.Allow("c")
	_, r2 := b.Allow("c")
	if r1 != r2 {
		t.Fatalf("jitter not deterministic: %v vs %v", r1, r2)
	}
	// Jitter stretches, never shrinks, and stays under 1+frac.
	base := time.Second
	if r1 < base || r1 >= time.Duration(1.5*float64(base)) {
		t.Fatalf("jittered retry %v outside [1s, 1.5s)", r1)
	}
	// Successive denials of the same client jitter differently.
	_, r3 := a.Allow("c")
	if r3 == r1 {
		t.Fatalf("successive denials identically jittered (%v)", r3)
	}
	// Distinct clients jitter differently.
	a.Allow("d")
	_, rd := a.Allow("d")
	if rd == r1 {
		t.Fatalf("distinct clients identically jittered (%v)", rd)
	}
}

func TestJitterRange(t *testing.T) {
	d := time.Second
	for seq := uint64(0); seq < 200; seq++ {
		j := Jitter("some-client", seq, d, 0.5)
		if j < d || j >= time.Duration(1.5*float64(d)) {
			t.Fatalf("seq %d: jitter %v outside [d, 1.5d)", seq, j)
		}
	}
	if Jitter("k", 7, d, 0.5) != Jitter("k", 7, d, 0.5) {
		t.Fatal("Jitter not a pure function")
	}
}
