// Package engine is the unified analysis engine behind the public pp API:
// one typed Request/Result model covering simulation, exact verification,
// stable-set analysis, pumping certificates, saturation, realisable bases,
// and the paper's bounds.
//
// An Engine resolves protocols through a protocols.Registry (compact spec
// strings, inline JSON, user-registered constructors) and memoizes the
// expensive per-protocol artifacts — stable-set analyses and realisable
// bases — behind a content-hash cache, so repeated requests against the
// same protocol are near-free. All methods are safe for concurrent use;
// concurrent requests for the same artifact compute it exactly once.
// The same cache slot keeps a table of exact-verification verdicts (the
// fair output on each input explored so far), so a verify request
// explores only the inputs no earlier request of that protocol explored;
// the table lives in memory only.
package engine

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bounds"
	"repro/internal/dioph"
	"repro/internal/multiset"
	"repro/internal/protocol"
	"repro/internal/protocols"
	"repro/internal/pump"
	"repro/internal/reach"
	"repro/internal/realise"
	"repro/internal/saturate"
	"repro/internal/sim"
	"repro/internal/stable"
	"repro/internal/store"
)

// ErrBadRequest wraps every request-validation failure, so transports can
// map it to a client error (HTTP 400) rather than a server one.
var ErrBadRequest = errors.New("engine: bad request")

// defaultMaxCachedProtocols bounds the artifact cache: a long-running
// server fed adversarially varied inline protocols must not grow its heap
// without limit.
const defaultMaxCachedProtocols = 256

// Inline protocols are capped while they are decoded, before they are
// built: Build completes an inline body with one identity transition per
// state pair, each carrying a d-word displacement vector, so its memory
// grows as Θ(states³).
const (
	maxInlineStates      = 128
	maxInlineTransitions = 16384
)

// Engine executes analysis requests. The zero value is not usable; create
// engines with New or NewWithRegistry.
type Engine struct {
	reg *protocols.Registry
	// sem bounds concurrently executing analyses: every CPU-heavy section
	// holds a slot (see acquire) for exactly as long as it computes, and
	// stops when its request's context ends, so an expired request has
	// freed its slot when Do returns; idle waiting never occupies capacity.
	sem chan struct{}

	// waiting counts goroutines blocked in acquire — the queue behind the
	// slot semaphore. Transports use it (via SlotStats) for admission
	// control: shedding new work when the queue is deep beats queueing
	// unboundedly.
	waiting atomic.Int64

	mu       sync.Mutex
	cache    map[string]*artifacts
	lru      *list.List // hashes, most recently used at the front
	maxCache int
	// specs memoizes builtin specs resolved by do (see resolveHashed);
	// it holds at most maxCache entries and is cleared when full.
	specs    map[string]resolvedSpec
	computes uint64

	// artstore, when set, is the disk layer under the in-memory cache:
	// misses try it before recomputing, computed artifacts write through.
	// See memoized and artifactio.go.
	artstore *store.Store

	// metrics instruments the request path and artifact cache; see
	// metrics.go. Always non-nil.
	metrics *Metrics
}

// memo is a once-per-engine artifact computation: the first arrival flips
// started and computes; everyone else waits on ready without holding an
// execution slot. Completion state lets lookups distinguish a true cache
// hit (complete on arrival) from waiting on an in-flight computation.
type memo[T any] struct {
	started atomic.Bool
	ready   chan struct{}
	val     T
	err     error
}

// completed reports whether the computation has finished.
func (m *memo[T]) completed() bool {
	select {
	case <-m.ready:
		return true
	default:
		return false
	}
}

// resolvedSpec is a resolved protocol entry with the ProtocolInfo every
// Result for it carries, content hash included.
type resolvedSpec struct {
	entry protocols.Entry
	info  ProtocolInfo
}

// artifacts holds the memoized per-protocol computations, keyed by the
// protocol's content hash.
type artifacts struct {
	stable memo[*stable.Analysis]
	basis  memo[[]realise.TransitionMultiset]
	// verdicts holds the fair output of every input a verify request has
	// explored (see reach.Verdicts); it is never written to disk.
	verdicts reach.Verdicts
	// elem is this entry's node in the engine's LRU list (value: the
	// protocol hash), maintained under e.mu.
	elem *list.Element
}

// New returns an engine resolving protocols through the process-wide
// default registry.
func New() *Engine { return NewWithRegistry(protocols.DefaultRegistry()) }

// NewWithRegistry returns an engine with its own protocol registry.
func NewWithRegistry(reg *protocols.Registry) *Engine {
	if reg == nil {
		reg = protocols.DefaultRegistry()
	}
	e := &Engine{
		reg:      reg,
		sem:      make(chan struct{}, max(2, runtime.NumCPU())),
		cache:    make(map[string]*artifacts),
		specs:    make(map[string]resolvedSpec),
		lru:      list.New(),
		maxCache: defaultMaxCachedProtocols,
	}
	e.metrics = newEngineMetrics(e)
	return e
}

// SetCacheLimit bounds the number of protocols with cached artifacts
// (default 256). When full, the least recently used entry is evicted;
// in-flight users of an evicted entry are unaffected.
func (e *Engine) SetCacheLimit(n int) {
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	e.maxCache = n
	e.mu.Unlock()
}

// Registry returns the registry the engine resolves specs against.
func (e *Engine) Registry() *protocols.Registry { return e.reg }

// CacheStats reports how many artifact lookups hit and missed the
// content-hash cache. A hit means the artifact was complete when the
// request arrived; a request that waits on an in-flight computation counts
// as a miss. It reads the pp_engine_cache_{hits,misses}_total counters.
func (e *Engine) CacheStats() (hits, misses uint64) {
	return uint64(e.metrics.CacheHits.Value()), uint64(e.metrics.CacheMisses.Value())
}

// Computations reports how many artifact computations actually ran —
// concurrent identical requests share one.
func (e *Engine) Computations() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.computes
}

func (e *Engine) countCompute() {
	e.mu.Lock()
	e.computes++
	e.mu.Unlock()
}

// acquire claims an execution slot, or gives up when ctx ends first. Hold
// slots only while burning CPU — never while waiting.
func (e *Engine) acquire(ctx context.Context) (release func(), err error) {
	e.waiting.Add(1)
	defer e.waiting.Add(-1)
	// The release closure captures the semaphore it acquired from, so a
	// later SetSlots cannot misroute an in-flight release.
	e.mu.Lock()
	sem := e.sem
	e.mu.Unlock()
	select {
	case sem <- struct{}{}:
		return func() { <-sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// SetSlots resizes the execution-slot semaphore (minimum 1). Call it before
// serving traffic: requests already waiting on the old semaphore keep its
// capacity until they drain.
func (e *Engine) SetSlots(n int) {
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	e.sem = make(chan struct{}, n)
	e.mu.Unlock()
}

// SlotStats reports the execution-slot semaphore's instantaneous state:
// busy slots, total capacity, and the number of goroutines queued behind
// it. Transports use it for load shedding — when busy == capacity and
// queued is deep, failing fast with Retry-After beats queueing unboundedly.
func (e *Engine) SlotStats() (busy, capacity, queued int) {
	e.mu.Lock()
	sem := e.sem
	e.mu.Unlock()
	return len(sem), cap(sem), int(e.waiting.Load())
}

// Resolve materialises a protocol reference: a registry spec, or an inline
// JSON protocol. Inline protocols carry no predicate.
func (e *Engine) Resolve(ref ProtocolRef) (protocols.Entry, error) {
	switch {
	case ref.Spec != "" && len(ref.Inline) > 0:
		return protocols.Entry{}, fmt.Errorf("%w: protocol ref has both spec and inline", ErrBadRequest)
	case ref.Spec != "":
		entry, err := e.reg.Resolve(ref.Spec)
		if err != nil {
			return protocols.Entry{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return entry, nil
	case len(ref.Inline) > 0:
		p, err := protocol.ParseBounded(ref.Inline, maxInlineStates, maxInlineTransitions)
		if err != nil {
			return protocols.Entry{}, fmt.Errorf("%w: inline protocol: %v", ErrBadRequest, err)
		}
		return protocols.Entry{Protocol: p}, nil
	default:
		return protocols.Entry{}, fmt.Errorf("%w: missing protocol (set spec or inline)", ErrBadRequest)
	}
}

// resolveHashed is Resolve followed by Hash and the ProtocolInfo summary.
// A builtin spec names the same protocol in every registry
// (protocols.IsBuiltin), so its result is memoized — the info too, which
// spares rendering the predicate per request; inline protocols and
// user-constructor specs are resolved on every call.
func (e *Engine) resolveHashed(ref ProtocolRef) (resolvedSpec, error) {
	memoize := len(ref.Inline) == 0 && protocols.IsBuiltin(ref.Spec)
	if memoize {
		e.mu.Lock()
		r, ok := e.specs[ref.Spec]
		e.mu.Unlock()
		if ok {
			return r, nil
		}
	}
	entry, err := e.Resolve(ref)
	if err != nil {
		return resolvedSpec{}, err
	}
	hash := Hash(entry.Protocol)
	r := resolvedSpec{entry: entry, info: ProtocolInfo{
		Name:        entry.Protocol.Name(),
		States:      entry.Protocol.NumStates(),
		Transitions: entry.Protocol.NumTransitions(),
		Inputs:      entry.Protocol.NumInputs(),
		Leaderless:  entry.Protocol.Leaderless(),
		Hash:        hash,
	}}
	if entry.Pred != nil {
		r.info.Predicate = entry.Pred.String()
	}
	if memoize {
		e.mu.Lock()
		if len(e.specs) >= e.maxCache {
			clear(e.specs)
		}
		e.specs[ref.Spec] = r
		e.mu.Unlock()
	}
	return r, nil
}

// Hash returns the content hash of a protocol: SHA-256 over its canonical
// JSON form (protocol.AppendJSON). Two protocols with equal specs hash
// equally however they were referenced (registry spec or inline JSON).
func Hash(p *protocol.Protocol) string {
	var buf [4096]byte
	sum := sha256.Sum256(p.AppendJSON(buf[:0]))
	return hex.EncodeToString(sum[:])
}

// Do executes one request on the caller's goroutine. The context carries
// cancellation and deadlines; Request.TimeoutMillis, when set, tightens it
// further. On timeout the returned error wraps context.DeadlineExceeded.
func (e *Engine) Do(ctx context.Context, req Request) (*Result, error) {
	kind := string(req.Kind)
	if !req.Kind.Valid() {
		kind = "invalid"
	}
	start := time.Now()
	res, err := e.do(ctx, req)
	status := requestStatus(err)
	e.metrics.Requests.WithLabelValues(kind, status).Inc()
	e.metrics.Latency.WithLabelValues(kind).Observe(time.Since(start).Seconds())
	if status == statusInterrupted {
		e.metrics.Interrupted.Inc()
	}
	return res, err
}

func (e *Engine) do(ctx context.Context, req Request) (*Result, error) {
	if !req.Kind.Valid() {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, req.Kind)
	}
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	start := time.Now()
	res := &Result{Kind: req.Kind}

	// Bounds requests may run protocol-free, from explicit state counts.
	var (
		entry protocols.Entry
		hash  string
	)
	if !req.Protocol.IsZero() || req.Kind != KindBounds {
		r, err := e.resolveHashed(req.Protocol)
		if err != nil {
			return nil, err
		}
		entry, hash = r.entry, r.info.Hash
		info := r.info // a copy: the memoized value is never shared
		res.Protocol = &info
	}

	if err := e.dispatch(ctx, req, entry, hash, res); err != nil {
		// A dispatch that failed after ctx ended is a timeout/cancellation:
		// surface it as the context error so transports classify it.
		if ctx.Err() != nil {
			return nil, fmt.Errorf("engine: %s request interrupted: %w", req.Kind, ctx.Err())
		}
		return nil, err
	}
	res.ElapsedMillis = float64(time.Since(start)) / float64(time.Millisecond)
	return res, nil
}

// dispatch fills res according to the request kind, on the caller's
// goroutine. Every core it calls stops on ctx.Done(), so the request's
// deadline bounds its work: an interrupted analysis returns soon after ctx
// ends, its execution slot released.
func (e *Engine) dispatch(ctx context.Context, req Request, entry protocols.Entry, hash string, res *Result) error {
	switch req.Kind {
	case KindSimulate:
		return e.doSimulate(ctx, req, entry, hash, res)
	case KindVerify:
		return e.doVerify(ctx, req, entry, hash, res)
	case KindStable:
		return e.doStable(ctx, req, entry, hash, res)
	case KindCertifyChain, KindCertifyLeaderless:
		return e.doCertify(ctx, req, entry, hash, res)
	case KindSaturate:
		return e.doSaturate(ctx, entry, res)
	case KindBasis:
		return e.doBasis(ctx, req, entry, hash, res)
	case KindBounds:
		return e.doBounds(ctx, req, entry, res)
	case KindCover:
		return e.doCover(ctx, req, entry, res)
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadRequest, req.Kind)
	}
}

// artifactsFor returns the (possibly fresh) artifact slot for a protocol
// hash, promoting it to most recently used. Under capacity pressure the
// least recently used entry is evicted, so a hot artifact (one a sweep is
// hammering) survives a parade of one-shot inline protocols.
func (e *Engine) artifactsFor(hash string) *artifacts {
	e.mu.Lock()
	defer e.mu.Unlock()
	a, ok := e.cache[hash]
	if ok {
		e.lru.MoveToFront(a.elem)
		return a
	}
	for len(e.cache) >= e.maxCache {
		back := e.lru.Back()
		if back == nil {
			break
		}
		delete(e.cache, back.Value.(string))
		e.lru.Remove(back)
		e.metrics.CacheEvictions.Inc()
	}
	a = &artifacts{
		stable: memo[*stable.Analysis]{ready: make(chan struct{})},
		basis:  memo[[]realise.TransitionMultiset]{ready: make(chan struct{})},
	}
	a.elem = e.lru.PushFront(hash)
	e.cache[hash] = a
	return a
}

func (e *Engine) countLookup(hit bool) {
	if hit {
		e.metrics.CacheHits.Inc()
	} else {
		e.metrics.CacheMisses.Inc()
	}
}

// evictIfCurrent drops an artifact slot, but only if it is still the one
// cached under hash (an interrupted computation must not clobber a fresh
// replacement another request already started).
func (e *Engine) evictIfCurrent(hash string, a *artifacts) {
	e.mu.Lock()
	evicted := e.cache[hash] == a
	if evicted {
		delete(e.cache, hash)
		e.lru.Remove(a.elem)
	}
	e.mu.Unlock()
	if evicted {
		e.metrics.CacheEvictions.Inc()
	}
}

// errInterrupted marks a memo whose compute (or slot acquire) failed
// because its request's context ended; waiters retry rather than share it.
var errInterrupted = errors.New("engine: artifact computation interrupted")

// memoized is the single-flight loop behind every memoized artifact: one
// path, memory → disk → compute. The second return value reports whether
// the artifact was complete when the request arrived (waiters on an
// in-flight computation count as misses — they pay the full latency). The
// first arrival holds an execution slot while it tries the disk store
// (decode) and, on a miss, computes and writes the artifact through
// (encode). A computation that failed because the computing request's
// context ended records errInterrupted and is evicted so it never poisons
// the cache; waiters whose own context is still live retry on a fresh slot.
func memoized[T any](ctx context.Context, e *Engine, p *protocol.Protocol, hash string,
	slot func(*artifacts) *memo[T], kind string,
	decode func(*protocol.Protocol, []byte) (T, error),
	compute func(context.Context, *protocol.Protocol) (T, error),
	encode func(T) []byte,
) (T, bool, error) {
	var zero T
	counted := false
	count := func(hit bool) {
		if !counted {
			e.countLookup(hit)
			counted = true
		}
	}
	for {
		a := e.artifactsFor(hash)
		m := slot(a)
		hit := m.completed()
		if m.started.CompareAndSwap(false, true) {
			count(false)
			release, err := e.acquire(ctx)
			if err != nil {
				// Never got to run: hand the slot race to a retrier.
				m.err = errInterrupted
				close(m.ready)
				e.evictIfCurrent(hash, a)
				return zero, false, err
			}
			// Disk first: a decodable entry skips the computation (and does
			// not count as one). Every failure degrades to a recompute, and
			// a payload that frames but does not decode (an older version,
			// a content-hash collision) is deleted so it cannot resurface.
			st := e.ArtifactStore()
			loaded := false
			if st != nil {
				if payload, err := st.Get(kind, hash); err == nil && payload != nil {
					if m.val, err = decode(p, payload); err == nil {
						loaded = true
					} else {
						_ = st.Delete(kind, hash)
					}
				}
			}
			if !loaded {
				e.countCompute()
				m.val, m.err = compute(ctx, p)
				if m.err != nil && ctx.Err() != nil {
					m.err = errInterrupted
				}
				// Best effort: a failed write only costs the next restart
				// (visible in pp_store_writes_total{result="error"}).
				if m.err == nil && st != nil {
					_ = st.Put(kind, hash, encode(m.val))
				}
			}
			release()
			close(m.ready)
		} else {
			// Waiting holds no execution slot.
			select {
			case <-m.ready:
			case <-ctx.Done():
				count(hit)
				return zero, hit, ctx.Err()
			}
			count(hit)
		}
		if m.err == errInterrupted {
			e.evictIfCurrent(hash, a)
			if err := ctx.Err(); err != nil {
				return zero, hit, err
			}
			continue
		}
		return m.val, hit, m.err
	}
}

// stableFor memoizes the stable-set analysis of a protocol (see memoized).
func (e *Engine) stableFor(ctx context.Context, p *protocol.Protocol, hash string) (*stable.Analysis, bool, error) {
	return memoized(ctx, e, p, hash,
		func(a *artifacts) *memo[*stable.Analysis] { return &a.stable },
		ArtifactStable, decodeStableArtifact,
		func(ctx context.Context, p *protocol.Protocol) (*stable.Analysis, error) {
			return stable.Analyze(p, stable.Options{Interrupt: ctx.Done()})
		},
		encodeStableArtifact)
}

// basisFor memoizes the realisable basis of a protocol (see memoized).
func (e *Engine) basisFor(ctx context.Context, p *protocol.Protocol, hash string) ([]realise.TransitionMultiset, bool, error) {
	return memoized(ctx, e, p, hash,
		func(a *artifacts) *memo[[]realise.TransitionMultiset] { return &a.basis },
		ArtifactBasis, decodeBasisArtifact,
		func(ctx context.Context, p *protocol.Protocol) ([]realise.TransitionMultiset, error) {
			return realise.Basis(p, dioph.Options{Interrupt: ctx.Done()})
		},
		encodeBasisArtifact)
}

func (e *Engine) doSimulate(ctx context.Context, req Request, entry protocols.Entry, hash string, res *Result) error {
	p := entry.Protocol
	in := multiset.Vec(req.Input)
	if err := ValidateInput(in, p.NumInputs()); err != nil {
		return err
	}
	c0 := p.InitialConfig(in)
	opts := sim.Options{Seed: req.Seed, MaxSteps: req.MaxSteps, TraceEvery: req.TraceEvery, Interrupt: ctx.Done()}
	if req.ExactOracle {
		a, hit, err := e.stableFor(ctx, p, hash)
		if err != nil {
			return fmt.Errorf("stable-set analysis: %w", err)
		}
		res.CacheHit = hit
		opts.Oracle = a
	}
	release, err := e.acquire(ctx)
	if err != nil {
		return err
	}
	defer release()
	if req.Runs > 1 {
		// Route through the replica executor with a single worker: the
		// request holds one engine execution slot, and the executor reuses
		// the per-replica scratch (tables, Fenwick tree, config buffer)
		// across all runs instead of rebuilding it per replica.
		est, err := sim.RunReplicas(p, c0, req.Runs, opts, 1)
		if err != nil {
			return err
		}
		res.Simulation = &SimulationResult{
			Converged: est.Converged == est.Runs,
			Output:    est.Output,
			Estimate: &EstimateResult{
				Runs: est.Runs, Converged: est.Converged, Output: est.Output,
				MeanParallel: est.MeanParallel, MedianParallel: est.MedianParallel,
				P95Parallel: est.P95Parallel, MaxParallel: est.MaxParallel,
				TotalInteractions: est.TotalInteractions, MeanInteractions: est.MeanInteractions,
			},
		}
		return nil
	}
	st, err := sim.Run(p, c0, opts)
	if err != nil {
		return err
	}
	sr := &SimulationResult{
		Converged:      st.Converged,
		Output:         st.Output,
		Interactions:   st.Interactions,
		ParallelTime:   st.ParallelTime,
		ConsensusAt:    st.ConsensusAt,
		Final:          st.Final,
		FinalFormatted: p.FormatConfig(st.Final),
	}
	for _, tp := range st.Trace {
		sr.Trace = append(sr.Trace, TracePoint{
			Interactions: tp.Interactions,
			Config:       p.FormatConfig(tp.Config),
		})
	}
	res.Simulation = sr
	return nil
}

func (e *Engine) doVerify(ctx context.Context, req Request, entry protocols.Entry, hash string, res *Result) error {
	p := entry.Protocol
	phi := entry.Pred
	if req.Predicate != nil {
		var err error
		phi, err = req.Predicate.Build()
		if err != nil {
			return err
		}
	}
	if phi == nil {
		return fmt.Errorf("%w: protocol carries no predicate; set request.predicate", ErrBadRequest)
	}
	if phi.Arity() != p.NumInputs() {
		return fmt.Errorf("%w: predicate arity %d, protocol has %d inputs", ErrBadRequest, phi.Arity(), p.NumInputs())
	}
	minSize, maxSize := req.MinSize, req.MaxSize
	if minSize <= 0 {
		minSize = 2
	}
	if maxSize <= 0 {
		maxSize = 8
		if entry.MaxExactInput > 0 && entry.MaxExactInput < maxSize {
			maxSize = entry.MaxExactInput
		}
	}
	if maxSize < minSize {
		return fmt.Errorf("%w: maxSize %d < minSize %d", ErrBadRequest, maxSize, minSize)
	}
	table := &e.artifactsFor(hash).verdicts
	release, err := e.acquire(ctx)
	if err != nil {
		return err
	}
	rep, err := reach.VerifyRangeInterruptible(p, phi, minSize, maxSize, req.Limit, ctx.Done(), table)
	release()
	if rep != nil {
		// A failed range still counts the inputs it checked before failing.
		e.metrics.VerifyInputs.WithLabelValues("table").Add(float64(rep.Reused))
		e.metrics.VerifyInputs.WithLabelValues("explored").Add(float64(len(rep.Results) - rep.Reused))
	}
	if err != nil {
		return err
	}
	res.CacheHit = rep.Reused > 0 && rep.Reused == len(rep.Results)
	vr := &VerifyResult{
		Predicate:    phi.String(),
		Inputs:       len(rep.Results),
		AllOK:        rep.AllOK(),
		TotalConfigs: rep.TotalConfigs,
		Summary:      rep.String(),
	}
	for _, f := range rep.Failures() {
		vr.Failures = append(vr.Failures, VerifyFailure{Input: f.Input, Want: f.Want, Got: f.Got})
	}
	res.Verification = vr
	return nil
}

func (e *Engine) doStable(ctx context.Context, req Request, entry protocols.Entry, hash string, res *Result) error {
	a, hit, err := e.stableFor(ctx, entry.Protocol, hash)
	if err != nil {
		return err
	}
	res.CacheHit = hit
	res.Stable = &StableResult{
		Basis0:      a.StableSet(0).Size(),
		Basis1:      a.StableSet(1).Size(),
		SCBasis:     len(a.SCBasis()),
		Iterations0: a.Iterations(0),
		Iterations1: a.Iterations(1),
		Frontier0:   a.FrontierProcessed(0),
		Frontier1:   a.FrontierProcessed(1),
		Norm:        a.MeasuredNorm(),
	}
	return nil
}

func (e *Engine) doCertify(ctx context.Context, req Request, entry protocols.Entry, hash string, res *Result) error {
	p := entry.Protocol
	// The finders need the stable-set analysis (and, leaderless, the
	// realisable basis) — the exact artifacts the engine memoizes. Inject
	// them so repeated certify requests skip the dominant recomputation.
	analysis, hit, err := e.stableFor(ctx, p, hash)
	if err != nil {
		return fmt.Errorf("stable-set analysis: %w", err)
	}
	res.CacheHit = hit
	opts := pump.FindOptions{Seed: req.Seed, Analysis: analysis, Interrupt: ctx.Done()}
	if req.Kind == KindCertifyLeaderless {
		// Fetched before the slot is taken: a cold basis computes under a
		// slot of its own, which a one-slot engine could never grant.
		basis, basisHit, err := e.basisFor(ctx, p, hash)
		if err != nil {
			return fmt.Errorf("realisable basis: %w", err)
		}
		res.CacheHit = hit && basisHit
		opts.Basis = basis
	}
	release, err := e.acquire(ctx)
	if err != nil {
		return err
	}
	defer release()
	// The finders self-check every certificate they return.
	switch req.Kind {
	case KindCertifyChain:
		cert, err := pump.FindChain(p, opts)
		if err != nil {
			return err
		}
		res.Certificate = &CertificateResult{Pipeline: "chain", A: cert.A, B: cert.B, Chain: cert}
	default:
		cert, err := pump.FindLeaderless(p, opts)
		if err != nil {
			return err
		}
		res.Certificate = &CertificateResult{Pipeline: "leaderless", A: cert.A, B: cert.B, Leaderless: cert}
	}
	return nil
}

func (e *Engine) doSaturate(ctx context.Context, entry protocols.Entry, res *Result) error {
	release, err := e.acquire(ctx)
	if err != nil {
		return err
	}
	w, err := saturate.Saturate(entry.Protocol)
	release()
	if err != nil {
		return err
	}
	res.Saturation = &SaturationResult{
		Stages:      w.Stages,
		Input:       w.Input,
		SequenceLen: len(w.Sequence),
		Config:      w.Config,
	}
	return nil
}

func (e *Engine) doBasis(ctx context.Context, req Request, entry protocols.Entry, hash string, res *Result) error {
	basis, hit, err := e.basisFor(ctx, entry.Protocol, hash)
	if err != nil {
		return err
	}
	res.CacheHit = hit
	res.Basis = &BasisResult{Size: len(basis), Basis: basis}
	return nil
}

func (e *Engine) doCover(ctx context.Context, req Request, entry protocols.Entry, res *Result) error {
	p := entry.Protocol
	in := multiset.Vec(req.Input)
	if err := ValidateInput(in, p.NumInputs()); err != nil {
		return err
	}
	ic := p.InitialConfig(in)
	release, err := e.acquire(ctx)
	if err != nil {
		return err
	}
	defer release()
	m1, m0, err := reach.MaxCoverLengthsBothInterruptible(p, ic, req.Limit, ctx.Done())
	if err != nil {
		return err
	}
	res.Cover = &CoverResult{Input: req.Input, MaxLen1: m1, MaxLen0: m0}
	return nil
}

// maxBoundsStates caps protocol-free bounds requests: the constants involve
// (2n+2)!-sized exponents, whose exact computation grows without practical
// limit in n.
const maxBoundsStates = 10_000

func (e *Engine) doBounds(ctx context.Context, req Request, entry protocols.Entry, res *Result) error {
	n, t := req.States, req.Transitions
	if entry.Protocol != nil {
		n = int64(entry.Protocol.NumStates())
		t = int64(entry.Protocol.NumTransitions())
	}
	if n < 1 {
		return fmt.Errorf("%w: bounds needs states ≥ 1 or a protocol", ErrBadRequest)
	}
	if n > maxBoundsStates {
		return fmt.Errorf("%w: bounds supports at most %d states, got %d", ErrBadRequest, maxBoundsStates, n)
	}
	if t == 0 {
		t = n * (n + 1) / 2
	}
	release, err := e.acquire(ctx)
	if err != nil {
		return err
	}
	defer release()
	res.Bounds = &BoundsResult{
		States:              n,
		Transitions:         t,
		Beta:                bounds.Beta(n).String(),
		Theta:               bounds.Theta(n).String(),
		Xi:                  bounds.Xi(t, n).String(),
		XiDeterministic:     bounds.XiDeterministic(n).String(),
		Theorem59:           bounds.Theorem59(n, t).String(),
		Theorem59Simplified: bounds.Theorem59Simplified(n).String(),
		BBLowerLeaderless:   bounds.BBLowerLeaderless(n).String(),
		BBLLowerWithLeaders: bounds.BBLLowerWithLeaders(n).String(),
	}
	return nil
}
