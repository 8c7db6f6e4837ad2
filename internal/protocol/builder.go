package protocol

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/multiset"
)

// Validation errors returned by Builder.Build.
var (
	ErrNoStates        = errors.New("protocol: no states")
	ErrNoInputs        = errors.New("protocol: no input variables")
	ErrIncomplete      = errors.New("protocol: a pair of states has no transition")
	ErrDuplicateState  = errors.New("protocol: duplicate state name")
	ErrDuplicateInput  = errors.New("protocol: duplicate input variable")
	ErrUnknownState    = errors.New("protocol: unknown state")
	ErrNegativeLeaders = errors.New("protocol: negative leader count")
)

// Builder assembles a Protocol. The zero value is not usable; create one with
// NewBuilder. Build validates the protocol; by default every unordered pair
// of states must have at least one transition, as the paper assumes. Use
// CompleteWithIdentity to fill missing pairs with no-op transitions.
type Builder struct {
	name        string
	states      []string
	outputs     []bool
	leaders     []leaderAdd
	inputs      []string
	inputMap    []State
	transitions []Transition // normalized, repeats included
	autoIdent   bool
}

// leaderAdd is one AddLeader call.
type leaderAdd struct {
	q State
	n int64
}

// NewBuilder returns a Builder for a protocol with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// AddState adds a state with the given name and output (0 or 1) and returns
// its id. Duplicate names are reported at Build time.
func (b *Builder) AddState(name string, output int) State {
	q := State(len(b.states))
	b.states = append(b.states, name)
	b.outputs = append(b.outputs, output != 0)
	return q
}

// AddTransition adds the transition ⟅p,q⟆ ↦ ⟅p2,q2⟆. Transitions are
// normalized (both sides unordered) and deduplicated: Build keeps the first
// addition of each.
func (b *Builder) AddTransition(p, q, p2, q2 State) {
	b.transitions = append(b.transitions, Transition{p, q, p2, q2}.normalize())
}

// AddLeader adds n leader agents in state q to the leader multiset L.
func (b *Builder) AddLeader(q State, n int64) {
	b.leaders = append(b.leaders, leaderAdd{q, n})
}

// AddInput declares an input variable mapped to state q by I. Duplicate
// names are reported at Build time.
func (b *Builder) AddInput(name string, q State) {
	b.inputs = append(b.inputs, name)
	b.inputMap = append(b.inputMap, q)
}

// CompleteWithIdentity makes Build add an identity transition p,q ↦ p,q for
// every pair of states that has no transition, satisfying the paper's
// completeness requirement without changing behaviour.
func (b *Builder) CompleteWithIdentity() *Builder {
	b.autoIdent = true
	return b
}

// Build validates and returns the protocol.
func (b *Builder) Build() (*Protocol, error) {
	n := len(b.states)
	if n == 0 {
		return nil, ErrNoStates
	}
	if len(b.inputs) == 0 {
		return nil, ErrNoInputs
	}
	seenName := make(map[string]bool, n)
	for _, name := range b.states {
		if seenName[name] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateState, name)
		}
		seenName[name] = true
	}
	seenInput := make(map[string]bool, len(b.inputs))
	for x, name := range b.inputs {
		if seenInput[name] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateInput, name)
		}
		seenInput[name] = true
		if q := b.inputMap[x]; q < 0 || int(q) >= n {
			return nil, fmt.Errorf("%w: input %q maps to state %d", ErrUnknownState, name, q)
		}
	}
	for _, t := range b.transitions {
		for _, q := range [4]State{t.P, t.Q, t.P2, t.Q2} {
			if q < 0 || int(q) >= n {
				return nil, fmt.Errorf("%w: transition uses state %d", ErrUnknownState, q)
			}
		}
	}

	leaders := multiset.New(n)
	for _, l := range b.leaders {
		if l.q < 0 || int(l.q) >= n {
			return nil, fmt.Errorf("%w: leader state %d", ErrUnknownState, l.q)
		}
		leaders[l.q] += l.n
	}
	for q, c := range leaders {
		if c < 0 {
			return nil, fmt.Errorf("%w: state %q has %d", ErrNegativeLeaders, b.states[q], c)
		}
	}

	p := &Protocol{
		name:     b.name,
		states:   slices.Clone(b.states),
		outputs:  slices.Clone(b.outputs),
		leaders:  leaders,
		inputs:   slices.Clone(b.inputs),
		inputMap: slices.Clone(b.inputMap),
	}
	if err := p.setTransitions(b.transitions, b.autoIdent); err != nil {
		return nil, err
	}
	return p, nil
}

// setTransitions fills the transition table and its indexes from the
// added (normalized, in-range) transitions ts. The table is ts without
// repeats, each kept at its first addition, followed — when autoIdent is
// set — by an identity transition for every pair of states that has none,
// in pair order. Repeats share a pre-pair, so they are dropped within the
// pre-pair buckets of a counting sort: a post-pair stamped with the
// bucket's number was seen earlier in it. The pair index and the
// displacement tables are laid out flat, one backing array each.
func (p *Protocol) setTransitions(ts []Transition, autoIdent bool) error {
	n := len(p.states)
	npairs := n * (n + 1) / 2
	m := len(ts)
	// start: bucket offsets; bucketed: indices into ts grouped by pre-pair,
	// ascending within a bucket; stamp: a cursor, then per-post-pair
	// stamps, then each empty bucket's identity transition; renum: the
	// table index of each ts entry, -1 for a repeat.
	scratch := make([]int32, 2*npairs+1+2*m)
	start, scratch := scratch[:npairs+1], scratch[npairs+1:]
	stamp, scratch := scratch[:npairs], scratch[npairs:]
	bucketed, renum := scratch[:m], scratch[m:]
	for _, t := range ts {
		start[p.pairIndex(t.P, t.Q)+1]++
	}
	for k := range npairs {
		start[k+1] += start[k]
	}
	copy(stamp, start)
	for i, t := range ts {
		k := p.pairIndex(t.P, t.Q)
		bucketed[stamp[k]] = int32(i)
		stamp[k]++
	}
	clear(stamp)
	empty := 0
	for k := range npairs {
		if start[k] == start[k+1] {
			empty++
		}
		for _, i := range bucketed[start[k]:start[k+1]] {
			post := p.pairIndex(ts[i].P2, ts[i].Q2)
			if stamp[post] == int32(k+1) {
				renum[i] = -1
			} else {
				stamp[post] = int32(k + 1)
			}
		}
	}

	p.transitions = make([]Transition, 0, m+empty)
	for i, t := range ts {
		if renum[i] == 0 {
			renum[i] = int32(len(p.transitions))
			p.transitions = append(p.transitions, t)
		}
	}
	for a := State(0); int(a) < n; a++ {
		for c := a; int(c) < n; c++ {
			k := p.pairIndex(a, c)
			if start[k] != start[k+1] {
				continue
			}
			if !autoIdent {
				return fmt.Errorf("%w: ⟅%s,%s⟆", ErrIncomplete, p.states[a], p.states[c])
			}
			stamp[k] = int32(len(p.transitions))
			p.transitions = append(p.transitions, Transition{a, c, a, c})
		}
	}

	// Pair index (CSR): bucket k lists its transitions in table order.
	p.pairOff = make([]int32, npairs+1)
	p.pairTrans = make([]int, 0, len(p.transitions))
	for k := range npairs {
		if start[k] == start[k+1] {
			p.pairTrans = append(p.pairTrans, int(stamp[k]))
		}
		for _, i := range bucketed[start[k]:start[k+1]] {
			if renum[i] >= 0 {
				p.pairTrans = append(p.pairTrans, int(renum[i]))
			}
		}
		p.pairOff[k+1] = int32(len(p.pairTrans))
	}

	// Displacements and their supports (the ≤4 states a firing touches),
	// so hot loops apply transitions without scanning all of Q.
	nt := len(p.transitions)
	p.deltas = make([]int64, nt*n)
	p.supOff = make([]int32, nt+1)
	p.supStates = make([]State, 0, 4*nt)
	p.supDeltas = make([]int64, 0, 4*nt)
	for i, t := range p.transitions {
		d := p.deltas[i*n : (i+1)*n]
		d[t.P]--
		d[t.Q]--
		d[t.P2]++
		d[t.Q2]++
		from := len(p.supStates)
		for _, q := range [4]State{t.P, t.Q, t.P2, t.Q2} {
			if d[q] != 0 && !slices.Contains(p.supStates[from:], q) {
				p.supStates = append(p.supStates, q)
				p.supDeltas = append(p.supDeltas, d[q])
			}
		}
		p.supOff[i+1] = int32(len(p.supStates))
	}
	return nil
}

// MustBuild is Build for protocols known to be valid, such as the library's
// built-in constructions; it panics on error.
func (b *Builder) MustBuild() *Protocol {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
