// Package govern holds the daemon's admission-control primitives: the
// mechanics that keep a long-lived ppserve healthy under abusive clients.
// It provides
//
//   - Limiter: a per-client token-bucket rate limiter whose denials carry
//     the actual time until the next token refills (the Retry-After a 429
//     should advertise);
//   - Jitter: a deterministic per-(key, seq) stretch of a delay, so
//     synchronized clients do not retry in lockstep.
//
// serve's admission control owns the policy; govern owns the mechanics,
// with an injectable clock so the policy is unit-testable without
// sleeping. The cluster agent reuses Jitter for its registration backoff.
package govern

import (
	"container/list"
	"hash/fnv"
	"io"
	"math"
	"sync"
	"time"
)

// LimiterOptions configures a Limiter.
type LimiterOptions struct {
	// Rate is the sustained request rate per client, in tokens per second.
	// Must be positive.
	Rate float64
	// Burst is the bucket capacity — how many requests a quiet client may
	// issue back to back. 0 means max(1, 2×Rate) rounded up.
	Burst float64
	// MaxKeys bounds the number of tracked clients; the least-recently-seen
	// bucket is dropped past it, so an address-spoofing flood cannot grow
	// the table without bound (0 = 4096). A dropped client restarts with a
	// full bucket — the bound trades a little enforcement for a hard memory
	// cap.
	MaxKeys int
	// JitterFrac spreads denial Retry-After values into [1, 1+JitterFrac)
	// of the computed refill time, deterministically per (client, denial
	// count). 0 means 0.5; negative disables jitter.
	JitterFrac float64
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (o LimiterOptions) withDefaults() LimiterOptions {
	if o.Burst <= 0 {
		o.Burst = math.Max(1, math.Ceil(2*o.Rate))
	}
	if o.Burst < 1 {
		o.Burst = 1
	}
	if o.MaxKeys <= 0 {
		o.MaxKeys = 4096
	}
	if o.JitterFrac == 0 {
		o.JitterFrac = 0.5
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// bucket is one client's token-bucket state.
type bucket struct {
	key     string
	tokens  float64
	last    time.Time
	denials uint64
	elem    *list.Element
}

// Limiter is a keyed token-bucket rate limiter. All methods are safe for
// concurrent use.
type Limiter struct {
	opts LimiterOptions

	mu      sync.Mutex
	buckets map[string]*bucket
	lru     *list.List // bucket keys, most recently seen at the front
}

// NewLimiter returns a limiter enforcing opts.Rate tokens/second per key.
// A non-positive rate panics: the caller decides whether limiting is
// enabled, the limiter only enforces.
func NewLimiter(opts LimiterOptions) *Limiter {
	if opts.Rate <= 0 {
		panic("govern: limiter rate must be positive")
	}
	return &Limiter{
		opts:    opts.withDefaults(),
		buckets: make(map[string]*bucket),
		lru:     list.New(),
	}
}

// Allow consumes one token from key's bucket. When the bucket is empty it
// returns ok=false and the time until the next token refills — the honest
// Retry-After — stretched by a deterministic per-(key, denial) jitter
// factor so a synchronized client fleet fans out instead of thundering
// back together.
func (l *Limiter) Allow(key string) (ok bool, retryAfter time.Duration) {
	now := l.opts.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[key]
	if b == nil {
		b = &bucket{key: key, tokens: l.opts.Burst, last: now}
		b.elem = l.lru.PushFront(key)
		l.buckets[key] = b
		for len(l.buckets) > l.opts.MaxKeys {
			oldest := l.lru.Back()
			l.lru.Remove(oldest)
			delete(l.buckets, oldest.Value.(string))
		}
	} else {
		l.lru.MoveToFront(b.elem)
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens = math.Min(l.opts.Burst, b.tokens+dt*l.opts.Rate)
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	b.denials++
	wait := time.Duration((1 - b.tokens) / l.opts.Rate * float64(time.Second))
	if l.opts.JitterFrac > 0 {
		wait = Jitter(key, b.denials, wait, l.opts.JitterFrac)
	}
	return false, wait
}

// Keys reports how many client buckets are currently tracked.
func (l *Limiter) Keys() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// Jitter stretches d into [1, 1+frac) deterministically per (key, seq):
// SplitMix64 over an FNV-1a seed, so a given client's schedule is
// reproducible while distinct clients (and successive denials of one
// client) land at decorrelated moments.
func Jitter(key string, seq uint64, d time.Duration, frac float64) time.Duration {
	h := fnv.New64a()
	io.WriteString(h, key)
	z := h.Sum64() + (seq+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	factor := 1 + frac*float64(z>>11)/(1<<53)
	return time.Duration(float64(d) * factor)
}
