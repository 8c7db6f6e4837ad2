package reach

import (
	"fmt"
	"strings"

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
	return g.verify(phi, v, limit, nil)
}

// verify resets the graph to IC(v), explores it and compares the fair
// output with ϕ(v).
func (g *Graph) verify(phi pred.Pred, v multiset.Vec, limit int, stop <-chan struct{}) (Result, error) {
	g.reset(g.p.InitialConfig(v))
	if err := g.explore(limit, stop, nil); err != nil {
		return Result{}, fmt.Errorf("verifying input %v: %w", v, err)
	}
	want := phi.Eval(v)
	got, ok := g.FairOutput()
	res := Result{
		Input:   v.Clone(),
		Want:    want,
		Got:     got,
		Configs: g.Len(),
	}
	if !ok {
		res.Got = -1
	}
	res.OK = ok && ((got == 1) == want)
	return res, nil
}

// VerifyRange checks the protocol against ϕ for every input multiset v over
// the protocol's input variables with minSize ≤ |v| ≤ maxSize. The paper
// only defines behaviour for |v| ≥ 2, so minSize is clamped to 2. Exhaustive
// and exact for the verified range.
func VerifyRange(p *protocol.Protocol, phi pred.Pred, minSize, maxSize int64, limit int) (*Report, error) {
	return VerifyRangeInterruptible(p, phi, minSize, maxSize, limit, nil)
}

// VerifyRangeInterruptible is VerifyRange with cooperative cancellation: it
// aborts with ErrInterrupted soon after the stop channel closes. Each
// input's exploration polls the channel before its first node, so the range
// stops before the next input at the latest. A nil channel disables the
// checks. One pooled graph is reset and re-explored for every input, so a
// range allocates only when it outgrows the graph's buffers.
func VerifyRangeInterruptible(p *protocol.Protocol, phi pred.Pred, minSize, maxSize int64, limit int, stop <-chan struct{}) (*Report, error) {
	if phi.Arity() != p.NumInputs() {
		return nil, fmt.Errorf("reach: predicate arity %d != protocol inputs %d",
			phi.Arity(), p.NumInputs())
	}
	if minSize < 2 {
		minSize = 2
	}
	g := pooledGraph(p)
	defer g.release()
	return g.verifyRange(phi, minSize, maxSize, limit, stop)
}

// verifyRange is VerifyRangeInterruptible on this graph, which must be
// bound to the protocol; minSize is already clamped.
func (g *Graph) verifyRange(phi pred.Pred, minSize, maxSize int64, limit int, stop <-chan struct{}) (*Report, error) {
	rep := &Report{}
	for s := minSize; s <= maxSize; s++ {
		inputs := enumerate(g.p.NumInputs(), s)
		for _, v := range inputs {
			res, err := g.verify(phi, v, limit, stop)
			if err != nil {
				return rep, err
			}
			rep.Results = append(rep.Results, res)
			rep.TotalConfigs += res.Configs
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
