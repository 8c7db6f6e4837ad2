package reach

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/multiset"
	"repro/internal/pred"
	"repro/internal/protocol"
)

// Result records the verdict for one input.
type Result struct {
	Input   multiset.Vec
	Want    bool // ϕ(v)
	Got     int  // fair output: 0, 1, or -1 if undefined/inconsistent
	OK      bool // Got is defined and matches Want
	Configs int  // size of the explored configuration graph
}

// Report aggregates verification over a set of inputs.
type Report struct {
	Results      []Result
	TotalConfigs int
	// Reused counts the results served by a verdict table instead of an
	// exploration (see VerifyRangeInterruptible).
	Reused int
}

// AllOK reports whether every input verified.
func (r *Report) AllOK() bool {
	for _, res := range r.Results {
		if !res.OK {
			return false
		}
	}
	return true
}

// Failures returns the failing results.
func (r *Report) Failures() []Result {
	var out []Result
	for _, res := range r.Results {
		if !res.OK {
			out = append(out, res)
		}
	}
	return out
}

// String summarises the report.
func (r *Report) String() string {
	var b strings.Builder
	fail := r.Failures()
	fmt.Fprintf(&b, "verified %d inputs, %d failures, %d configurations explored",
		len(r.Results), len(fail), r.TotalConfigs)
	for i, f := range fail {
		if i == 5 {
			fmt.Fprintf(&b, "\n  ... %d more", len(fail)-5)
			break
		}
		fmt.Fprintf(&b, "\n  input %v: want %t, fair output %d", f.Input, f.Want, f.Got)
	}
	return b.String()
}

// VerifyInput checks the protocol against ϕ on a single input multiset v:
// it explores the configuration graph from IC(v) and compares the fair
// output with ϕ(v). This is sound and complete for this input.
func VerifyInput(p *protocol.Protocol, phi pred.Pred, v multiset.Vec, limit int) (Result, error) {
	g := pooledGraph(p)
	defer g.release()
	got, configs, err := g.fairOutputFrom(v, limit, nil)
	if err != nil {
		return Result{}, err
	}
	return newResult(phi, v.Clone(), got, configs), nil
}

// fairOutputFrom resets the graph to IC(v), explores it and returns its
// fair output (-1 if undefined or inconsistent) and size.
func (g *Graph) fairOutputFrom(v multiset.Vec, limit int, stop <-chan struct{}) (got, configs int, err error) {
	g.reset(g.p.InitialConfig(v))
	if err := g.explore(limit, stop, nil); err != nil {
		return 0, 0, fmt.Errorf("verifying input %v: %w", v, err)
	}
	got, ok := g.FairOutput()
	if !ok {
		got = -1
	}
	return got, g.Len(), nil
}

// newResult compares a fair output on input v with ϕ(v).
func newResult(phi pred.Pred, v multiset.Vec, got, configs int) Result {
	want := phi.Eval(v)
	return Result{Input: v, Want: want, Got: got, OK: got != -1 && (got == 1) == want, Configs: configs}
}

// maxVerdicts bounds a Verdicts table: once it holds this many inputs it
// stops recording, and lookups still serve what it holds.
const maxVerdicts = 1024

// Verdicts remembers, for one protocol, the fair output of each input
// explored so far and the size of its configuration graph. The verdict on
// input v depends only on the protocol and v — not on the predicate or the
// range that asked — so any later range over the same protocol can read
// it instead of exploring IC(v) again. It holds at most maxVerdicts
// entries and is safe for concurrent use. The zero value is an empty
// table.
type Verdicts struct {
	mu sync.Mutex
	m  map[string]verdict // by multiset.Vec.Key of the input
}

type verdict struct {
	got, configs int
}

// lookup returns the verdict recorded for input v if its graph has at
// most limit configurations (a bigger one would have hit the limit, and
// the input must be explored to fail as it would without the table). A nil
// table holds nothing.
func (t *Verdicts) lookup(v multiset.Vec, limit int) (verdict, bool) {
	if t == nil {
		return verdict{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	vd, ok := t.m[v.Key()]
	return vd, ok && vd.configs <= limit
}

// record stores the verdict of a completed exploration of input v, unless
// the table is nil or full. Exploration is deterministic, so concurrent
// ranges recording the same input store the same verdict.
func (t *Verdicts) record(v multiset.Vec, vd verdict) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[string]verdict)
	}
	if len(t.m) < maxVerdicts {
		t.m[v.Key()] = vd
	}
}

// VerifyRange checks the protocol against ϕ for every input multiset v over
// the protocol's input variables with minSize ≤ |v| ≤ maxSize. The paper
// only defines behaviour for |v| ≥ 2, so minSize is clamped to 2. Exhaustive
// and exact for the verified range.
func VerifyRange(p *protocol.Protocol, phi pred.Pred, minSize, maxSize int64, limit int) (*Report, error) {
	return VerifyRangeInterruptible(p, phi, minSize, maxSize, limit, nil, nil)
}

// VerifyRangeInterruptible is VerifyRange with cooperative cancellation
// and a verdict table. It aborts with ErrInterrupted soon after the stop
// channel closes: each input's exploration polls the channel before its
// first node, so the range stops before the next explored input at the
// latest. A nil channel disables the checks.
//
// table, when non-nil, must belong to p. An input whose verdict it holds
// (from a graph within limit) is not explored, and every input explored to
// completion is recorded; Report.Reused counts the inputs the table
// served. Errors and interrupted explorations are never recorded, so a
// range fails exactly as it would without the table. A nil table explores
// every input.
//
// One pooled graph, taken at the first input the table cannot answer, is
// reset and re-explored for every explored input, so a range allocates
// only when it outgrows the graph's buffers.
func VerifyRangeInterruptible(p *protocol.Protocol, phi pred.Pred, minSize, maxSize int64, limit int, stop <-chan struct{}, table *Verdicts) (*Report, error) {
	if phi.Arity() != p.NumInputs() {
		return nil, fmt.Errorf("reach: predicate arity %d != protocol inputs %d",
			phi.Arity(), p.NumInputs())
	}
	if minSize < 2 {
		minSize = 2
	}
	var g *Graph
	rep, err := verifyRange(p, phi, minSize, maxSize, limit, stop, table, func() *Graph {
		if g == nil {
			g = pooledGraph(p)
		}
		return g
	})
	if g != nil {
		g.release()
	}
	return rep, err
}

// verifyRange is the loop behind VerifyRangeInterruptible (minSize already
// clamped). graph returns the graph to explore on, bound to p; it is only
// called for an input the table cannot answer.
func verifyRange(p *protocol.Protocol, phi pred.Pred, minSize, maxSize int64, limit int, stop <-chan struct{},
	table *Verdicts, graph func() *Graph) (*Report, error) {
	rep := &Report{}
	maxConfigs := clampLimit(limit)
	for s := minSize; s <= maxSize; s++ {
		for _, v := range enumerate(p.NumInputs(), s) {
			vd, hit := table.lookup(v, maxConfigs)
			if hit {
				rep.Reused++
			} else {
				var err error
				vd.got, vd.configs, err = graph().fairOutputFrom(v, limit, stop)
				if err != nil {
					return rep, err
				}
				table.record(v, vd)
			}
			rep.Results = append(rep.Results, newResult(phi, v, vd.got, vd.configs))
			rep.TotalConfigs += vd.configs
		}
	}
	return rep, nil
}

// enumerate returns all multisets over d variables with total exactly s.
func enumerate(d int, s int64) []multiset.Vec {
	var out []multiset.Vec
	cur := multiset.New(d)
	var rec func(i int, left int64)
	rec = func(i int, left int64) {
		if i == d-1 {
			cur[i] = left
			out = append(out, cur.Clone())
			cur[i] = 0
			return
		}
		for n := int64(0); n <= left; n++ {
			cur[i] = n
			rec(i+1, left-n)
		}
		cur[i] = 0
	}
	if d == 0 {
		return nil
	}
	rec(0, s)
	return out
}

// ThresholdWitness computes, for a single-input protocol, the observed
// threshold: the smallest input i in [2, maxInput] whose fair output is 1,
// requiring outputs to be monotone (0 below, 1 from the witness on) as a
// threshold predicate demands. found is false if every input up to maxInput
// outputs 0. An error is returned on non-convergence or non-monotonicity,
// which disqualify the protocol as a threshold ("busy beaver") protocol.
func ThresholdWitness(p *protocol.Protocol, maxInput int64, limit int) (eta int64, found bool, err error) {
	if p.NumInputs() != 1 {
		return 0, false, fmt.Errorf("reach: ThresholdWitness needs a single input variable")
	}
	eta, found = 0, false
	g := pooledGraph(p)
	defer g.release()
	for i := int64(2); i <= maxInput; i++ {
		g.reset(p.InitialConfigN(i))
		if err := g.explore(limit, nil, nil); err != nil {
			return 0, false, err
		}
		b, ok := g.FairOutput()
		if !ok {
			return 0, false, fmt.Errorf("reach: no consistent fair output on input %d", i)
		}
		switch {
		case b == 1 && !found:
			eta, found = i, true
		case b == 0 && found:
			return 0, false, fmt.Errorf("reach: output not monotone: 1 at %d but 0 at %d", eta, i)
		}
	}
	return eta, found, nil
}
