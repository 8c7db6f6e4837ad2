package protocol

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/jsonenc"
)

// Spec is the on-disk JSON representation of a protocol, used by the command
// line tools. Example:
//
//	{
//	  "name": "majority",
//	  "states": [{"name": "A", "output": 1}, {"name": "B", "output": 0}],
//	  "transitions": [["A", "B", "B", "B"]],
//	  "leaders": {"A": 1},
//	  "inputs": {"x": "A"},
//	  "completeWithIdentity": true
//	}
type Spec struct {
	Name                 string            `json:"name"`
	States               []SpecState       `json:"states"`
	Transitions          [][4]string       `json:"transitions"`
	Leaders              map[string]int64  `json:"leaders,omitempty"`
	Inputs               map[string]string `json:"inputs"`
	CompleteWithIdentity bool              `json:"completeWithIdentity,omitempty"`
}

// SpecState is one state entry of a Spec.
type SpecState struct {
	Name   string `json:"name"`
	Output int    `json:"output"`
}

// ErrTooLarge is returned by ParseBounded for a spec with more states or
// transitions than its caps allow.
var ErrTooLarge = errors.New("protocol: spec too large")

// FromSpec builds a protocol from its JSON representation.
func FromSpec(s Spec) (*Protocol, error) {
	b := NewBuilder(s.Name)
	if s.CompleteWithIdentity {
		b.CompleteWithIdentity()
	}
	b.states = make([]string, 0, len(s.States))
	b.outputs = make([]bool, 0, len(s.States))
	b.transitions = make([]Transition, 0, len(s.Transitions))
	idx := make(map[string]State, len(s.States))
	for _, st := range s.States {
		if _, dup := idx[st.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateState, st.Name)
		}
		idx[st.Name] = b.AddState(st.Name, st.Output)
	}
	lookup := func(name string) (State, error) {
		q, ok := idx[name]
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrUnknownState, name)
		}
		return q, nil
	}
	for _, tr := range s.Transitions {
		var qs [4]State
		for i, name := range tr {
			q, err := lookup(name)
			if err != nil {
				return nil, err
			}
			qs[i] = q
		}
		b.AddTransition(qs[0], qs[1], qs[2], qs[3])
	}
	for name, n := range s.Leaders {
		q, err := lookup(name)
		if err != nil {
			return nil, err
		}
		b.AddLeader(q, n)
	}
	// Sort input names for deterministic variable order.
	names := make([]string, 0, len(s.Inputs))
	for name := range s.Inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q, err := lookup(s.Inputs[name])
		if err != nil {
			return nil, err
		}
		b.AddInput(name, q)
	}
	return b.Build()
}

// MarshalJSON encodes the protocol as its Spec: the canonical form AppendJSON
// writes.
func (p *Protocol) MarshalJSON() ([]byte, error) {
	return p.AppendJSON(nil), nil
}

// Parse decodes a protocol from JSON bytes.
func Parse(data []byte) (*Protocol, error) {
	return ParseBounded(data, 0, 0)
}

// ParseBounded is Parse with caps on the number of states and transitions a
// spec may list (0 means no cap). The caps are enforced while decoding, so
// an oversized spec is rejected with ErrTooLarge before it is held in
// memory or built.
func ParseBounded(data []byte, maxStates, maxTransitions int) (*Protocol, error) {
	s, err := decodeSpec(data, maxStates, maxTransitions)
	if err != nil {
		return nil, err
	}
	return FromSpec(s)
}

// specDecoder decodes a Spec in one pass over the JSON text, with exactly
// the outcome of encoding/json's Unmarshal into a Spec: the same documents
// are accepted, with an equal result (see jsonenc.Decoder). Beyond the
// shared rules, maps merge on a repeated key, short transitions are
// zero-filled and long ones truncated, and equal strings are interned.
type specDecoder struct {
	jsonenc.Decoder
	maxStates, maxTransitions int
	strs                      map[string]string // interned string values
}

// decodeSpec decodes data into a Spec, rejecting a spec with more than
// maxStates states or maxTransitions transitions (0 means no cap).
func decodeSpec(data []byte, maxStates, maxTransitions int) (Spec, error) {
	d := specDecoder{
		Decoder:   jsonenc.NewDecoder(data, "protocol: parsing spec"),
		maxStates: maxStates, maxTransitions: maxTransitions,
	}
	var s Spec
	if err := d.spec(&s); err != nil {
		return Spec{}, err
	}
	if err := d.End(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// intern returns b as a string, sharing one allocation among equal strings
// (state names recur in every transition).
func (d *specDecoder) intern(b []byte) string {
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.strs == nil {
		d.strs = make(map[string]string, 64)
	}
	d.strs[s] = s
	return s
}

// str decodes a string value into *dst, interned; null leaves it
// unchanged.
func (d *specDecoder) str(dst *string) error {
	if d.Peek() != '"' {
		return d.Str(dst) // null, or a mismatch
	}
	v, err := d.Text()
	if err != nil {
		return err
	}
	*dst = d.intern(v)
	return nil
}

// list decodes an array into *dst with jsonenc.Slice, reporting more than
// limit elements (when positive) as ErrTooLarge.
func list[T any](d *specDecoder, dst *[]T, limit, hint int, what string, elem func(*T) error) error {
	err := jsonenc.Slice(&d.Decoder, dst, limit, hint, elem)
	if errors.Is(err, jsonenc.ErrTooMany) {
		return fmt.Errorf("%w: at least %d %s (limit %d)", ErrTooLarge, limit+1, what, limit)
	}
	return err
}

// dict decodes an object into *dst as encoding/json decodes into a map: a
// nil map is made, an existing one is added to, each value is decoded from
// its zero value, and null sets the map to nil.
func dict[V any](d *specDecoder, dst *map[string]V, elem func(*V) error) error {
	ok, err := d.Open('{', "object")
	if !ok {
		if err == nil {
			*dst = nil
		}
		return err
	}
	if *dst == nil {
		*dst = make(map[string]V)
	}
	m := *dst
	return d.Object(func(key []byte) error {
		k := d.intern(key)
		var v V
		if err := elem(&v); err != nil {
			return err
		}
		m[k] = v
		return nil
	})
}

// spec decodes the top-level value into *s.
func (d *specDecoder) spec(s *Spec) error {
	if ok, err := d.Open('{', "object"); !ok {
		return err
	}
	return d.Object(func(key []byte) error {
		switch {
		case jsonenc.Field(key, "name"):
			return d.str(&s.Name)
		case jsonenc.Field(key, "states"):
			return list(d, &s.States, d.maxStates, 16, "states", d.state)
		case jsonenc.Field(key, "transitions"):
			// A complete protocol has a transition per pair of states.
			n := len(s.States)
			return list(d, &s.Transitions, d.maxTransitions, min(n*(n+1)/2, 1024), "transitions", d.transition)
		case jsonenc.Field(key, "leaders"):
			return dict(d, &s.Leaders, d.Int64)
		case jsonenc.Field(key, "inputs"):
			return dict(d, &s.Inputs, d.str)
		case jsonenc.Field(key, "completeWithIdentity"):
			return d.Bool(&s.CompleteWithIdentity)
		}
		return d.Skip()
	})
}

// state decodes one states element into *st; null leaves it unchanged.
func (d *specDecoder) state(st *SpecState) error {
	if ok, err := d.Open('{', "object"); !ok {
		return err
	}
	return d.Object(func(key []byte) error {
		switch {
		case jsonenc.Field(key, "name"):
			return d.str(&st.Name)
		case jsonenc.Field(key, "output"):
			return d.Int(&st.Output)
		}
		return d.Skip()
	})
}

// transition decodes one transitions element into *t: elements past the
// fourth are skipped, missing ones zeroed, and null leaves *t unchanged.
func (d *specDecoder) transition(t *[4]string) error {
	if ok, err := d.Open('[', "array"); !ok {
		return err
	}
	n := 0
	err := d.Array(func(i int) error {
		n = i + 1
		if i < len(t) {
			return d.str(&t[i])
		}
		return d.Skip()
	})
	for i := n; i < len(t); i++ {
		t[i] = ""
	}
	return err
}

// AppendJSON appends the protocol's canonical JSON form to dst and returns
// the extended buffer. The bytes are exactly those encoding/json's Marshal
// writes for the protocol's Spec — identity transitions kept, leaders only
// when there are any, map keys in byte order, HTML-safe string escaping —
// which the engine's content hash, and so every artifact key, is taken
// over.
func (p *Protocol) AppendJSON(dst []byte) []byte {
	// A built protocol has a state and a transition, so neither list is
	// the null encoding/json writes for an empty slice.
	dst = append(dst, `{"name":`...)
	dst = jsonenc.String(dst, p.name, true)
	dst = append(dst, `,"states":[`...)
	for q, name := range p.states {
		if q > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = jsonenc.String(dst, name, true)
		dst = append(dst, `,"output":`...)
		dst = append(dst, '0'+byte(p.Output(State(q))), '}')
	}
	dst = append(dst, `],"transitions":[`...)
	for i, t := range p.transitions {
		if i > 0 {
			dst = append(dst, ',')
		}
		for j, q := range [4]State{t.P, t.Q, t.P2, t.Q2} {
			dst = append(dst, "[,"[min(j, 1)])
			dst = jsonenc.String(dst, p.states[q], true)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, ']')
	order := make([]int, 0, 16)
	if !p.Leaderless() {
		for q, n := range p.leaders {
			if n > 0 {
				order = append(order, q)
			}
		}
		sortByName(order, p.states)
		dst = append(dst, `,"leaders":{`...)
		for i, q := range order {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonenc.String(dst, p.states[q], true)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, p.leaders[q], 10)
		}
		dst = append(dst, '}')
	}
	order = order[:0]
	for x := range p.inputs {
		order = append(order, x)
	}
	sortByName(order, p.inputs)
	dst = append(dst, `,"inputs":{`...)
	for i, x := range order {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonenc.String(dst, p.inputs[x], true)
		dst = append(dst, ':')
		dst = jsonenc.String(dst, p.states[p.inputMap[x]], true)
	}
	return append(dst, "}}"...)
}

// sortByName sorts indices into names by the names' bytes, the order
// encoding/json writes map keys in.
func sortByName(idx []int, names []string) {
	slices.SortFunc(idx, func(a, b int) int { return strings.Compare(names[a], names[b]) })
}
