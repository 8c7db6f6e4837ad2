// Package protocol implements the population protocol model of Section 2.2 of
// the paper: a tuple P = (Q, T, L, X, I, O) of states, pairwise transitions,
// a leader multiset, input variables, an input mapping, and a binary output
// mapping. Configurations are multisets over Q; executions fire transitions
// on pairs of agents.
//
// States are dense indices (type State) into the protocol's state table;
// configurations are multiset.Vec values of dimension NumStates. Protocols
// are immutable once built (see Builder); all accessors either return copies
// or values that must not be modified, as documented per method.
package protocol

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/multiset"
)

// State identifies a protocol state as an index into the state table.
type State int

// Config is a configuration: a multiset over the protocol's states. The
// paper requires |C| ≥ 2 for a configuration; functions that depend on this
// document it explicitly.
type Config = multiset.Vec

// Transition is a pair transition ⟅P,Q⟆ ↦ ⟅P2,Q2⟆. Both sides are unordered
// multisets of size two; transitions are normalized so that P ≤ Q and
// P2 ≤ Q2.
type Transition struct {
	P, Q   State // pre: the two interacting agents' states
	P2, Q2 State // post: their states after the interaction
}

// normalize returns t with both sides sorted.
func (t Transition) normalize() Transition {
	if t.P > t.Q {
		t.P, t.Q = t.Q, t.P
	}
	if t.P2 > t.Q2 {
		t.P2, t.Q2 = t.Q2, t.P2
	}
	return t
}

// IsIdentity reports whether the transition does not move any agent, i.e.
// ⟅P,Q⟆ = ⟅P2,Q2⟆. Identity transitions exist to satisfy the paper's
// requirement that every pair of states has at least one transition.
func (t Transition) IsIdentity() bool {
	t = t.normalize()
	return t.P == t.P2 && t.Q == t.Q2
}

// Protocol is an immutable population protocol.
type Protocol struct {
	name        string
	states      []string // state names; index is the State id
	outputs     []bool   // O: Q → {0,1}; true encodes output 1
	leaders     multiset.Vec
	inputs      []string // input variable names X
	inputMap    []State  // I: X → Q
	transitions []Transition
	deltas      []int64 // displacement Δt of transition i at [i·|Q|, (i+1)·|Q|)
	pairOff     []int32 // pairTrans offsets per unordered pair index (CSR)
	pairTrans   []int   // transition indices, grouped by unordered pre-pair
	supOff      []int32 // supStates/supDeltas offsets per transition (CSR)
	supStates   []State // support of Δt: the states whose count changes
	supDeltas   []int64 // per-state change, aligned with supStates
}

// Name returns the protocol's human-readable name.
func (p *Protocol) Name() string { return p.name }

// NumStates returns |Q|.
func (p *Protocol) NumStates() int { return len(p.states) }

// NumTransitions returns |T| (after normalization and deduplication).
func (p *Protocol) NumTransitions() int { return len(p.transitions) }

// NumInputs returns |X|.
func (p *Protocol) NumInputs() int { return len(p.inputs) }

// StateName returns the name of state q.
func (p *Protocol) StateName(q State) string { return p.states[q] }

// StateByName returns the state with the given name.
func (p *Protocol) StateByName(name string) (State, bool) {
	for i, s := range p.states {
		if s == name {
			return State(i), true
		}
	}
	return 0, false
}

// Output returns O(q) as 0 or 1.
func (p *Protocol) Output(q State) int {
	if p.outputs[q] {
		return 1
	}
	return 0
}

// OutputStates returns the sorted states with output b.
func (p *Protocol) OutputStates(b int) []State {
	var out []State
	for q := range p.states {
		if p.Output(State(q)) == b {
			out = append(out, State(q))
		}
	}
	return out
}

// Leaders returns a copy of the leader multiset L. The protocol is leaderless
// iff this is the zero multiset.
func (p *Protocol) Leaders() multiset.Vec { return p.leaders.Clone() }

// NumLeaders returns |L|.
func (p *Protocol) NumLeaders() int64 { return p.leaders.Size() }

// Leaderless reports whether L = 0.
func (p *Protocol) Leaderless() bool { return p.leaders.IsZero() }

// InputNames returns a copy of the input-variable names X.
func (p *Protocol) InputNames() []string {
	out := make([]string, len(p.inputs))
	copy(out, p.inputs)
	return out
}

// InputState returns I(x) for input variable index x.
func (p *Protocol) InputState(x int) State { return p.inputMap[x] }

// Transition returns transition number i.
func (p *Protocol) Transition(i int) Transition { return p.transitions[i] }

// Transitions returns a copy of the transition table.
func (p *Protocol) Transitions() []Transition {
	out := make([]Transition, len(p.transitions))
	copy(out, p.transitions)
	return out
}

// pairIndex maps the unordered pair {p,q} with p ≤ q to a dense index.
func (p *Protocol) pairIndex(a, b State) int {
	if a > b {
		a, b = b, a
	}
	return int(b)*(int(b)+1)/2 + int(a)
}

// TransitionsForPair returns the indices of the transitions with precondition
// ⟅a,b⟆. The returned slice is owned by the protocol and must not be
// modified.
func (p *Protocol) TransitionsForPair(a, b State) []int {
	k := p.pairIndex(a, b)
	return p.pairTrans[p.pairOff[k]:p.pairOff[k+1]:p.pairOff[k+1]]
}

// Deterministic reports whether every pair of states has exactly one
// transition.
func (p *Protocol) Deterministic() bool {
	for k := range len(p.pairOff) - 1 {
		if p.pairOff[k+1]-p.pairOff[k] != 1 {
			return false
		}
	}
	return true
}

// Displacement returns Δt for transition index i: the change in agent counts
// caused by firing it (Section 5.1). The returned vector is owned by the
// protocol and must not be modified.
func (p *Protocol) Displacement(i int) multiset.Vec {
	n := len(p.states)
	return p.deltas[i*n : (i+1)*n : (i+1)*n]
}

// DeltaSupport returns the support of Δt for transition i: the states whose
// count changes when it fires, with the matching per-state changes. Identity
// transitions have empty support; non-identity ones touch at most 4 states.
// Both slices are owned by the protocol and must not be modified. This is
// the table the simulator's incremental bookkeeping runs on: applying a
// transition touches only the returned states, never the whole vector.
func (p *Protocol) DeltaSupport(i int) ([]State, []int64) {
	from, to := p.supOff[i], p.supOff[i+1]
	return p.supStates[from:to:to], p.supDeltas[from:to:to]
}

// ParikhDisplacement returns Δπ = Σ_t π(t)·Δt for a multiset π of transition
// indices.
func (p *Protocol) ParikhDisplacement(pi map[int]int64) multiset.Vec {
	d := multiset.New(p.NumStates())
	for t, n := range pi {
		d = d.AddScaled(n, p.Displacement(t))
	}
	return d
}

// InitialConfig returns IC(m) = L + Σ_x m(x)·I(x) for an input multiset m
// over the input variables (dimension NumInputs). The paper requires
// |m| ≥ 2 for an input; this is the caller's responsibility.
func (p *Protocol) InitialConfig(m multiset.Vec) Config {
	if m.Dim() != len(p.inputs) {
		panic(fmt.Sprintf("protocol: input dimension %d, want %d", m.Dim(), len(p.inputs)))
	}
	c := p.leaders.Clone()
	for x, n := range m {
		c[p.inputMap[x]] += n
	}
	return c
}

// InitialConfigN returns IC(i·x) for a protocol with a single input variable
// x, the setting of the busy beaver results.
func (p *Protocol) InitialConfigN(i int64) Config {
	if len(p.inputs) != 1 {
		panic(fmt.Sprintf("protocol: InitialConfigN needs 1 input variable, have %d", len(p.inputs)))
	}
	c := p.leaders.Clone()
	c[p.inputMap[0]] += i
	return c
}

// Enabled reports whether transition i is enabled at C, i.e. C ≥ ⟅P,Q⟆.
func (p *Protocol) Enabled(c Config, i int) bool {
	t := p.transitions[i]
	if t.P == t.Q {
		return c[t.P] >= 2
	}
	return c[t.P] >= 1 && c[t.Q] >= 1
}

// Fire returns the configuration reached by firing transition i at C, in a
// fresh vector. It panics if the transition is not enabled.
func (p *Protocol) Fire(c Config, i int) Config {
	out := c.Clone()
	p.FireInPlace(out, i)
	return out
}

// FireInPlace fires transition i at C, mutating C. It panics if the
// transition is not enabled.
func (p *Protocol) FireInPlace(c Config, i int) {
	if !p.Enabled(c, i) {
		t := p.transitions[i]
		panic(fmt.Sprintf("protocol: transition %s not enabled at %s",
			p.FormatTransition(t), c.Format(p.states)))
	}
	t := p.transitions[i]
	c[t.P]--
	c[t.Q]--
	c[t.P2]++
	c[t.Q2]++
}

// EnabledTransitions returns the indices of all transitions enabled at C.
func (p *Protocol) EnabledTransitions(c Config) []int {
	var out []int
	for i := range p.transitions {
		if p.Enabled(c, i) {
			out = append(out, i)
		}
	}
	return out
}

// Silent reports whether every transition enabled at C is an identity, i.e.
// no interaction can change C. Silent configurations are trivially stable.
func (p *Protocol) Silent(c Config) bool {
	for i := range p.transitions {
		if p.Enabled(c, i) && !p.Displacement(i).IsZero() {
			return false
		}
	}
	return true
}

// OutputOf returns the output O(C) of configuration C: b if every populated
// state has output b, and ok = false if the output is undefined (states of
// both outputs are populated, or C is empty).
func (p *Protocol) OutputOf(c Config) (b int, ok bool) {
	saw0, saw1 := false, false
	for q, n := range c {
		if n == 0 {
			continue
		}
		if p.outputs[q] {
			saw1 = true
		} else {
			saw0 = true
		}
	}
	switch {
	case saw0 && !saw1:
		return 0, true
	case saw1 && !saw0:
		return 1, true
	default:
		return 0, false
	}
}

// Saturated reports whether C is j-saturated: C(q) ≥ j for every state q
// (Section 5.1).
func (p *Protocol) Saturated(c Config, j int64) bool {
	for _, n := range c {
		if n < j {
			return false
		}
	}
	return true
}

// FormatConfig renders a configuration with state names.
func (p *Protocol) FormatConfig(c Config) string { return c.Format(p.states) }

// FormatTransition renders a transition as "p,q ↦ p',q'".
func (p *Protocol) FormatTransition(t Transition) string {
	return fmt.Sprintf("%s,%s ↦ %s,%s",
		p.states[t.P], p.states[t.Q], p.states[t.P2], p.states[t.Q2])
}

// String returns a multi-line description of the protocol.
func (p *Protocol) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol %q: %d states, %d transitions", p.name, len(p.states), len(p.transitions))
	if !p.Leaderless() {
		fmt.Fprintf(&b, ", leaders %s", p.leaders.Format(p.states))
	}
	b.WriteString("\n  states:")
	for q, name := range p.states {
		fmt.Fprintf(&b, " %s/%d", name, p.Output(State(q)))
	}
	b.WriteString("\n  inputs:")
	for x, name := range p.inputs {
		fmt.Fprintf(&b, " %s→%s", name, p.states[p.inputMap[x]])
	}
	b.WriteString("\n")
	ts := p.Transitions()
	sort.Slice(ts, func(i, j int) bool {
		a, c := ts[i], ts[j]
		if a.P != c.P {
			return a.P < c.P
		}
		if a.Q != c.Q {
			return a.Q < c.Q
		}
		if a.P2 != c.P2 {
			return a.P2 < c.P2
		}
		return a.Q2 < c.Q2
	})
	for _, t := range ts {
		if t.IsIdentity() {
			continue
		}
		fmt.Fprintf(&b, "  %s\n", p.FormatTransition(t))
	}
	return b.String()
}
