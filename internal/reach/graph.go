// Package reach implements exact finite-population semantics for population
// protocols: breadth-first exploration of the configuration graph of a fixed
// population size, strongly-connected-component analysis, and the resulting
// sound-and-complete verdicts about fair executions.
//
// The key characterisation (standard for finite systems and used as the
// ground truth throughout this repository): transitions preserve population
// size, so the configurations reachable from IC(v) form a finite graph, and
// a fair execution eventually enters a bottom SCC and visits every
// configuration of that SCC infinitely often. Hence every fair execution
// from IC(v) stabilises to output b iff every bottom SCC reachable from
// IC(v) is a b-consensus (all its configurations have output b), and the
// protocol computes ϕ on input v iff this holds with b = ϕ(v).
//
// The exploration core is built for throughput: configurations live
// dimension-strided in one flat arena, successor lists are a single CSR
// (compressed sparse row) structure, and deduplication goes through an
// open-addressing index keyed by a linear configuration hash that each
// transition updates by a precomputed constant — no per-node allocations on
// the hot path. A node's successors come only from the transitions enabled
// in it, gathered from a pre-state-pair index over the states it holds, and
// duplicate edges are dropped by a per-node stamp. The verify, threshold
// and cover queries take their graph from a pool and reset it per input, so
// they allocate only when they outgrow the pooled buffers. See
// docs/performance.md for the layout, the reuse design, and the determinism
// guarantees.
package reach

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/multiset"
	"repro/internal/protocol"
)

// ErrLimitExceeded is returned when exploration would exceed the
// configuration limit.
var ErrLimitExceeded = errors.New("reach: configuration limit exceeded")

// ErrInterrupted is returned when a stop channel closes mid-exploration
// (cooperative cancellation; see ExploreInterruptible).
var ErrInterrupted = errors.New("reach: interrupted")

// interrupted polls a stop channel without blocking. Hot loops batch calls
// (every ~1024 nodes) so the select never shows up in profiles.
func interrupted(stop <-chan struct{}) bool {
	select { // a nil stop never fires
	case <-stop:
		return true
	default:
		return false
	}
}

// Step is one edge of a path: firing Transition led to the configuration
// with index To.
type Step struct {
	Transition int
	To         int
}

// Graph is the set of configurations reachable from a start configuration,
// with its transition edges. Node 0 is the start configuration; nodes are
// numbered in BFS discovery order (by level, and within a level by the
// (source node, transition index) of the discovering edge), so each BFS
// level is a contiguous id range. A graph reset and re-explored from a
// start configuration numbers it exactly as a fresh Explore does.
type Graph struct {
	p     *protocol.Protocol
	store configStore
	idx   nodeIndex
	// Successor lists in CSR form: the successors of node i are
	// succ[succOff[i]:succOff[i+1]] (identity self-loops omitted,
	// duplicate edges collapsed).
	succOff []int64
	succ    []int32
	// BFS tree for path reconstruction: parent node, the transition fired,
	// and the BFS depth (= shortest path length from the start).
	parent     []int32
	parentTran []int32
	depth      []int32
	// seen[j] == head+1 while node j is already in the successor segment
	// of head under construction (successor dedup by stamp).
	seen []int32
	// Per-protocol tables, rebuilt by bind: the compact transitions, the
	// hash coefficient of each state, and the transitions indexed by
	// pre-state pair in CSR form over states × states: the transitions
	// with pre ⟅a,b⟆, a ≤ b, are pairTr[pairOff[k]:pairOff[k+1]] for
	// k = a·|Q|+b, in ascending compact index. A protocol is complete, so
	// its own transition table is already larger.
	trans   []tran
	coef    []uint64
	pairOff []int32
	pairTr  []int32
	// pairSorted reports that pairTr is ascending: the protocol lists its
	// transitions pair by pair, so gathering pairs in key order already
	// yields ascending transition indices.
	pairSorted bool
	// Per-head scratch of explore: the states present in the head, the
	// enabled compact transitions, and the successor under construction.
	present []int32
	enabled []int32
	next    []int64
	// scc is Tarjan's working memory, reused by every SCC computation on
	// this graph (see scc.go).
	scc sccScratch
}

// tran is a compact non-identity transition: pre ⟅p,q⟆, post ⟅p2,q2⟆, and
// the change delta it makes to the raw configuration hash.
type tran struct {
	p, q, p2, q2 int32
	idx          int32 // index in the protocol's transition list
	delta        uint64
}

// graphPool recycles the graphs of VerifyRange, VerifyInput,
// ThresholdWitness and the cover queries, which never hand their graph
// out: every buffer keeps its capacity from one query to the next, and
// resetting one costs nothing proportional to that capacity.
var graphPool = sync.Pool{New: func() any { return new(Graph) }}

// pooledGraph returns a graph for p from the pool; hand it back with
// release once nothing refers to it.
func pooledGraph(p *protocol.Protocol) *Graph {
	g := graphPool.Get().(*Graph)
	g.bind(p)
	return g
}

// release returns the graph to the pool. It must not be used afterwards.
func (g *Graph) release() {
	g.p = nil
	graphPool.Put(g)
}

// bind attaches the graph to p, rebuilding the per-protocol tables in the
// graph's existing buffers; reset then gives it a start configuration.
func (g *Graph) bind(p *protocol.Protocol) {
	d := p.NumStates()
	g.p = p
	g.store.dim = d
	g.coef = hashCoefs(g.coef, d)
	g.trans = g.trans[:0]
	for t := 0; t < p.NumTransitions(); t++ {
		if p.Displacement(t).IsZero() {
			continue // identity transition: self-loop, irrelevant to SCCs
		}
		tr := p.Transition(t)
		g.trans = append(g.trans, tran{
			p: int32(tr.P), q: int32(tr.Q), p2: int32(tr.P2), q2: int32(tr.Q2),
			idx:   int32(t),
			delta: g.coef[tr.P2] + g.coef[tr.Q2] - g.coef[tr.P] - g.coef[tr.Q],
		})
	}
	// Counting sort of the compact transitions by pair key; filling in
	// compact order keeps each pair's list ascending.
	pairs := d * d
	g.pairOff = resized(g.pairOff, pairs+1)
	clear(g.pairOff)
	for _, t := range g.trans {
		g.pairOff[t.p*int32(d)+t.q+1]++
	}
	for k := 0; k < pairs; k++ {
		g.pairOff[k+1] += g.pairOff[k]
	}
	g.pairTr = resized(g.pairTr, len(g.trans))
	for i, t := range g.trans {
		k := t.p*int32(d) + t.q
		g.pairTr[g.pairOff[k]] = int32(i)
		g.pairOff[k]++
	}
	// The fill advanced each pair's start to its end; shift back.
	copy(g.pairOff[1:], g.pairOff[:pairs])
	g.pairOff[0] = 0
	g.pairSorted = slices.IsSorted(g.pairTr)
	g.present = resized(g.present, d)
	g.enabled = resized(g.enabled, len(g.trans))
	g.next = resized(g.next, d)
}

// visitFunc observes every newly discovered node (including node 0) at its
// BFS depth. Returning false stops the exploration immediately; the graph
// is then partial (valid parent/depth data, incomplete successor lists) and
// is only used internally, e.g. by the goal-directed cover search.
type visitFunc func(g *Graph, node, depth int32) bool

// Explore builds the configuration graph reachable from start. It returns
// ErrLimitExceeded if more than limit configurations are reachable
// (limit ≤ 0 means a default of 2,000,000).
func Explore(p *protocol.Protocol, start protocol.Config, limit int) (*Graph, error) {
	return ExploreInterruptible(p, start, limit, nil)
}

// ExploreInterruptible is Explore with cooperative cancellation: it aborts
// with ErrInterrupted soon after the stop channel closes. A nil channel
// disables the checks.
func ExploreInterruptible(p *protocol.Protocol, start protocol.Config, limit int, stop <-chan struct{}) (*Graph, error) {
	if err := checkStart(p, start); err != nil {
		return nil, err
	}
	g := new(Graph)
	g.bind(p)
	g.reset(start)
	if err := g.explore(limit, stop, nil); err != nil {
		return nil, err
	}
	return g, nil
}

// checkStart rejects a start configuration of the wrong dimension.
func checkStart(p *protocol.Protocol, start protocol.Config) error {
	if start.Dim() != p.NumStates() {
		return fmt.Errorf("reach: start configuration has dimension %d, want %d",
			start.Dim(), p.NumStates())
	}
	return nil
}

// clampLimit normalizes the configuration limit: ≤ 0 means the default,
// and node ids must fit in int32.
func clampLimit(limit int) int {
	if limit <= 0 {
		limit = 2_000_000
	}
	if limit > math.MaxInt32-1 {
		limit = math.MaxInt32 - 1
	}
	return limit
}

// reset empties the graph down to the single node start, keeping the
// capacity of every buffer. Views handed out before (Config, Succs) are
// invalidated.
func (g *Graph) reset(start protocol.Config) {
	g.store.reset()
	g.idx.reset()
	g.succOff = append(g.succOff[:0], 0)
	g.succ = g.succ[:0]
	g.store.add(start)
	g.idx.add(0, g.hash(start))
	g.parent = append(g.parent[:0], -1)
	g.parentTran = append(g.parentTran[:0], -1)
	g.depth = append(g.depth[:0], 0)
	g.seen = append(g.seen[:0], 0)
}

// hash is the configuration hash of c from scratch (see arena.go).
func (g *Graph) hash(c []int64) uint64 { return fmix64(rawHash(g.coef, c)) }

// explore is the sequential BFS over the configuration graph from node 0
// (the graph must have just been reset).
func (g *Graph) explore(limit int, stop <-chan struct{}, visit visitFunc) error {
	limit = clampLimit(limit)
	if visit != nil && !visit(g, 0, 0) {
		return nil
	}
	next := g.next
	for head := 0; head < g.store.n; head++ {
		if head&1023 == 0 && interrupted(stop) {
			return ErrInterrupted
		}
		c := g.store.at(int32(head))
		d := g.depth[head]
		raw := rawHash(g.coef, c)
		// A compact transition changes the configuration, so no successor
		// is the head itself: the stamp only has to catch repeats.
		stamp := int32(head) + 1
		for _, ti := range g.enabledAt(c) {
			t := &g.trans[ti]
			copy(next, c)
			next[t.p]--
			next[t.q]--
			next[t.p2]++
			next[t.q2]++
			h := fmix64(raw + t.delta)
			j, ok := g.idx.lookup(&g.store, next, h)
			if !ok {
				if g.store.n >= limit {
					return fmt.Errorf("%w: limit %d from %s", ErrLimitExceeded, limit, g.p.FormatConfig(g.Start()))
				}
				j = g.store.add(next)
				g.idx.add(j, h)
				g.parent = append(g.parent, int32(head))
				g.parentTran = append(g.parentTran, t.idx)
				g.depth = append(g.depth, d+1)
				g.seen = append(g.seen, 0)
				if visit != nil && !visit(g, j, d+1) {
					return nil
				}
				// The arena may have been reallocated; refresh the view of
				// the head configuration (contents are unchanged either way).
				c = g.store.at(int32(head))
			}
			if g.seen[j] != stamp {
				g.seen[j] = stamp
				g.succ = append(g.succ, j)
			}
		}
		g.succOff = append(g.succOff, int64(len(g.succ)))
	}
	return nil
}

// enabledAt returns the compact transitions enabled in c in ascending
// order, so successors are discovered in (source, transition index) order.
// It visits only the pairs of states present in c. The slice is scratch,
// valid until the next call.
func (g *Graph) enabledAt(c []int64) []int32 {
	present := g.present[:len(c)]
	np := 0
	for i, x := range c {
		present[np] = int32(i) // kept only if x > 0; no branch to mispredict
		if x > 0 {
			np++
		}
	}
	present = present[:np]
	off, tr := g.pairOff, g.pairTr
	enabled := g.enabled[:len(tr)]
	n := 0
	d := int32(len(c))
	for ia, a := range present {
		from := ia + 1 // pairs {a,b} with b > a
		if c[a] >= 2 {
			from = ia // and {a,a}
		}
		row := a * d
		for _, b := range present[from:] {
			k := row + b
			for i := off[k]; i < off[k+1]; i++ {
				enabled[n] = tr[i]
				n++
			}
		}
	}
	enabled = enabled[:n]
	if !g.pairSorted {
		slices.Sort(enabled)
	}
	return enabled
}

// Protocol returns the protocol this graph was built for.
func (g *Graph) Protocol() *protocol.Protocol { return g.p }

// Len returns the number of reachable configurations.
func (g *Graph) Len() int { return g.store.n }

// Config returns configuration i. The returned vector is a view into the
// graph's arena and must not be modified.
func (g *Graph) Config(i int) protocol.Config { return protocol.Config(g.store.at(int32(i))) }

// Start returns the start configuration (node 0).
func (g *Graph) Start() protocol.Config { return g.Config(0) }

// Depth returns the BFS depth of node i, i.e. the length of a shortest
// execution from the start configuration to it.
func (g *Graph) Depth(i int) int { return int(g.depth[i]) }

// IndexOf returns the node index of configuration c.
func (g *Graph) IndexOf(c protocol.Config) (int, bool) {
	if c.Dim() != g.store.dim {
		return 0, false
	}
	i, ok := g.idx.lookup(&g.store, c, g.hash(c))
	return int(i), ok
}

// Succs returns the successor node indices of node i (identity self-loops
// omitted). The slice is owned by the graph and must not be modified.
func (g *Graph) Succs(i int) []int32 { return g.succ[g.succOff[i]:g.succOff[i+1]] }

// Path returns the sequence of steps of a shortest path (in the BFS tree)
// from the start configuration to node i.
func (g *Graph) Path(i int) []Step {
	rev := make([]Step, 0, g.depth[i])
	for i != 0 {
		rev = append(rev, Step{Transition: int(g.parentTran[i]), To: i})
		i = int(g.parent[i])
	}
	// Reverse.
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev
}

// ReplayPath fires the steps from a copy of from and returns the resulting
// configuration, validating enabledness; it is used by certificate checkers
// to re-verify paths with exact arithmetic.
func ReplayPath(p *protocol.Protocol, from protocol.Config, steps []Step, g *Graph) (protocol.Config, error) {
	c := from.Clone()
	for _, s := range steps {
		if s.Transition < 0 || s.Transition >= p.NumTransitions() {
			return nil, fmt.Errorf("reach: bad transition index %d", s.Transition)
		}
		if !p.Enabled(c, s.Transition) {
			return nil, fmt.Errorf("reach: transition %s disabled during replay",
				p.FormatTransition(p.Transition(s.Transition)))
		}
		p.FireInPlace(c, s.Transition)
		if g != nil {
			if want := g.Config(s.To); !c.Equal(want) {
				return nil, fmt.Errorf("reach: replay diverged from recorded path")
			}
		}
	}
	return c, nil
}

// Filter returns the indices of configurations satisfying keep.
func (g *Graph) Filter(keep func(protocol.Config) bool) []int {
	var out []int
	for i := 0; i < g.store.n; i++ {
		if keep(g.Config(i)) {
			out = append(out, i)
		}
	}
	return out
}

// CoveringConfigs returns the indices of configurations that cover m, i.e.
// C ≥ m. Used for coverability queries (Rackoff's theorem context).
func (g *Graph) CoveringConfigs(m multiset.Vec) []int {
	return g.Filter(func(c protocol.Config) bool { return m.Le(c) })
}
