package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

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

// maxNesting is encoding/json's nesting limit, which the decoder mirrors so
// the two accept the same documents.
const maxNesting = 10000

// specDecoder decodes a Spec in one pass over the JSON text, with exactly
// the outcome of encoding/json's Unmarshal into a Spec: the same documents
// are accepted, with an equal result. That means case-insensitive keys,
// skipped unknown fields, null leaving strings, numbers, booleans, fixed
// arrays and structs untouched and resetting slices and maps, a repeated
// key decoding again into the value it already holds (maps merge, slices
// overwrite their elements in place), short transitions zero-filled and long
// ones truncated, and invalid UTF-8 in strings replaced by U+FFFD. Where
// Unmarshal records a type mismatch and carries on, the decoder stops at
// once: either way the document is rejected.
type specDecoder struct {
	data                      []byte
	off                       int
	maxStates, maxTransitions int
	strs                      map[string]string // interned string values
	buf                       []byte            // unescaped string scratch
}

// decodeSpec decodes data into a Spec, rejecting a spec with more than
// maxStates states or maxTransitions transitions (0 means no cap).
func decodeSpec(data []byte, maxStates, maxTransitions int) (Spec, error) {
	d := specDecoder{data: data, maxStates: maxStates, maxTransitions: maxTransitions}
	var s Spec
	if err := d.spec(&s); err != nil {
		return Spec{}, err
	}
	if d.peek(); d.off < len(d.data) {
		return Spec{}, d.syntaxError("after top-level value")
	}
	return s, nil
}

func (d *specDecoder) syntaxError(context string) error {
	if d.off >= len(d.data) {
		return errors.New("protocol: parsing spec: unexpected end of JSON input")
	}
	return fmt.Errorf("protocol: parsing spec: invalid character %q %s (offset %d)", d.data[d.off], context, d.off)
}

// mismatch reports that the value at d.off is not of the wanted kind.
func (d *specDecoder) mismatch(want string) error {
	return fmt.Errorf("protocol: parsing spec: want %s at offset %d", want, d.off)
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *specDecoder) peek() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes the literal word (null, true or false) at d.off.
func (d *specDecoder) literal(word string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(word)) {
		return d.syntaxError("in literal " + word)
	}
	d.off += len(word)
	return nil
}

// number consumes a number token and returns its bytes.
func (d *specDecoder) number() ([]byte, error) {
	data, i := d.data, d.off
	digits := func() bool {
		from := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case !digits():
		d.off = i
		return nil, d.syntaxError("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			d.off = i
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			d.off = i
			return nil, d.syntaxError("in exponent of numeric literal")
		}
	}
	tok := data[d.off:i]
	d.off = i
	return tok, nil
}

// text consumes a string token and returns its value: the bytes between
// the quotes when they are valid UTF-8 without escapes, else their
// unescaped form, valid until the next string is decoded.
func (d *specDecoder) text() ([]byte, error) {
	data := d.data
	i := d.off + 1 // past the opening quote
	plain, ascii := true, true
	for {
		if i >= len(data) {
			d.off = i
			return nil, d.syntaxError("in string literal")
		}
		switch c := data[i]; {
		case c == '"':
			raw := data[d.off+1 : i]
			d.off = i + 1
			if plain && (ascii || utf8.Valid(raw)) {
				return raw, nil
			}
			return d.unescape(raw), nil
		case c == '\\':
			plain = false
			i++
			if i >= len(data) {
				d.off = i
				return nil, d.syntaxError("in string literal")
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for end := i + 4; i < end; i++ {
					if i >= len(data) || !isHex(data[i]) {
						d.off = i
						return nil, d.syntaxError("in \\u hexadecimal character escape")
					}
				}
			default:
				d.off = i
				return nil, d.syntaxError("in string escape code")
			}
		case c < ' ':
			d.off = i
			return nil, d.syntaxError("in string literal")
		default:
			ascii = ascii && c < utf8.RuneSelf
			i++
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// hex4 decodes the four hex digits after a validated \u.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescape decodes the validated string body s into d.buf as encoding/json
// does: escapes resolved, a \u surrogate pair combined, a lone surrogate
// and every invalid UTF-8 byte replaced by U+FFFD. The result is valid
// until the next call.
func (d *specDecoder) unescape(s []byte) []byte {
	b := d.buf[:0]
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(s[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						rr1 = hex4(s[r+2:])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	d.buf = b
	return b
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

// key consumes an object key and the colon after it, returning the key's
// unescaped bytes (valid until the next string is decoded).
func (d *specDecoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntaxError("looking for beginning of object key string")
	}
	k, err := d.text()
	if err != nil {
		return nil, err
	}
	if d.peek() != ':' {
		return nil, d.syntaxError("after object key")
	}
	d.off++
	return k, nil
}

// object consumes an object at nesting depth depth, calling field for each
// key with the decoder positioned at its value.
func (d *specDecoder) object(depth int, field func(key []byte) error) error {
	if depth > maxNesting {
		return d.syntaxError("exceeding max depth")
	}
	d.off++ // {
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		k, err := d.key()
		if err != nil {
			return err
		}
		if err := field(k); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			d.off++
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// array consumes an array at nesting depth depth, calling elem for element
// i with the decoder positioned at it.
func (d *specDecoder) array(depth int, elem func(i int) error) error {
	if depth > maxNesting {
		return d.syntaxError("exceeding max depth")
	}
	d.off++ // [
	if d.peek() == ']' {
		d.off++
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case ']':
			d.off++
			return nil
		default:
			return d.syntaxError("after array element")
		}
	}
}

// skip consumes any value at nesting depth depth, checking its syntax.
func (d *specDecoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(depth, func([]byte) error { return d.skip(depth + 1) })
	case c == '[':
		return d.array(depth, func(int) error { return d.skip(depth + 1) })
	case c == '"':
		_, err := d.text()
		return err
	case c == 'n':
		return d.literal("null")
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	default:
		return d.syntaxError("looking for beginning of value")
	}
}

// field reports whether key names the field name, matched as encoding/json
// matches keys: exactly, else under Unicode case folding.
func field(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// str decodes a string value into *dst; null leaves it unchanged.
func (d *specDecoder) str(dst *string) error {
	switch d.peek() {
	case '"':
		v, err := d.text()
		if err != nil {
			return err
		}
		*dst = d.intern(v)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("string")
}

// int64 decodes an integer value into *dst; null leaves it unchanged. A
// fraction, an exponent or a value outside the int64 range is an error.
func (d *specDecoder) int64(dst *int64) error {
	switch c := d.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		tok, err := d.number()
		if err != nil {
			return err
		}
		neg := tok[0] == '-'
		if neg {
			tok = tok[1:]
		}
		limit := uint64(math.MaxInt64)
		if neg {
			limit++
		}
		var u uint64
		for _, c := range tok {
			if c < '0' || c > '9' {
				return fmt.Errorf("protocol: parsing spec: want an integer at offset %d", d.off)
			}
			v := uint64(c - '0')
			if u > (limit-v)/10 {
				return fmt.Errorf("protocol: parsing spec: integer overflow at offset %d", d.off)
			}
			u = u*10 + v
		}
		*dst = int64(u)
		if neg {
			*dst = -*dst
		}
		return nil
	case c == 'n':
		return d.literal("null")
	}
	return d.mismatch("number")
}

// int decodes an integer value into *dst, as int64 does.
func (d *specDecoder) int(dst *int) error {
	v := int64(*dst)
	if err := d.int64(&v); err != nil {
		return err
	}
	if int64(int(v)) != v {
		return fmt.Errorf("protocol: parsing spec: integer overflow at offset %d", d.off)
	}
	*dst = int(v)
	return nil
}

// bool decodes a boolean value into *dst; null leaves it unchanged.
func (d *specDecoder) bool(dst *bool) error {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("boolean")
}

// open checks that the next value is the container start (an object or an
// array): it reports false, after consuming the literal, for null, and an
// error for any other value.
func (d *specDecoder) open(start byte, want string) (bool, error) {
	switch d.peek() {
	case start:
		return true, nil
	case 'n':
		return false, d.literal("null")
	}
	return false, d.mismatch(want)
}

// slice decodes an array into *dst as encoding/json decodes into a slice:
// element i is decoded in place over whatever the backing array holds
// there, the array grows only past its capacity, and the result is
// truncated to the decoded length (an empty array gives an empty non-nil
// slice, null a nil one). A fresh backing array gets capacity hint; the
// outcome does not depend on capacity, since growing copies every element
// written so far and the rest are zero either way. More than limit
// elements (when positive) is an ErrTooLarge error.
func slice[T any](d *specDecoder, dst *[]T, limit, hint int, what string, elem func(*T) error) error {
	ok, err := d.open('[', "array")
	if !ok {
		if err == nil {
			*dst = nil
		}
		return err
	}
	s := *dst
	n := 0
	err = d.array(2, func(i int) error {
		if limit > 0 && i >= limit {
			return fmt.Errorf("%w: at least %d %s (limit %d)", ErrTooLarge, i+1, what, limit)
		}
		if i < cap(s) {
			s = s[:i+1]
		} else if i == 0 {
			s = make([]T, 1, max(hint, 1))
		} else {
			var zero T
			s = append(s, zero)
		}
		n = i + 1
		return elem(&s[i])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		s = []T{}
	}
	*dst = s[:n]
	return nil
}

// dict decodes an object into *dst as encoding/json decodes into a map: a
// nil map is made, an existing one is added to, each value is decoded from
// its zero value, and null sets the map to nil.
func dict[V any](d *specDecoder, dst *map[string]V, elem func(*V) error) error {
	ok, err := d.open('{', "object")
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
	return d.object(2, func(key []byte) error {
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
	if ok, err := d.open('{', "object"); !ok {
		return err
	}
	return d.object(1, func(key []byte) error {
		switch {
		case field(key, "name"):
			return d.str(&s.Name)
		case field(key, "states"):
			return slice(d, &s.States, d.maxStates, 16, "states", d.state)
		case field(key, "transitions"):
			// A complete protocol has a transition per pair of states.
			n := len(s.States)
			return slice(d, &s.Transitions, d.maxTransitions, min(n*(n+1)/2, 1024), "transitions", d.transition)
		case field(key, "leaders"):
			return dict(d, &s.Leaders, d.int64)
		case field(key, "inputs"):
			return dict(d, &s.Inputs, d.str)
		case field(key, "completeWithIdentity"):
			return d.bool(&s.CompleteWithIdentity)
		}
		return d.skip(2)
	})
}

// state decodes one states element into *st; null leaves it unchanged.
func (d *specDecoder) state(st *SpecState) error {
	if ok, err := d.open('{', "object"); !ok {
		return err
	}
	return d.object(3, func(key []byte) error {
		switch {
		case field(key, "name"):
			return d.str(&st.Name)
		case field(key, "output"):
			return d.int(&st.Output)
		}
		return d.skip(4)
	})
}

// transition decodes one transitions element into *t: elements past the
// fourth are skipped, missing ones zeroed, and null leaves *t unchanged.
func (d *specDecoder) transition(t *[4]string) error {
	if ok, err := d.open('[', "array"); !ok {
		return err
	}
	n := 0
	err := d.array(3, func(i int) error {
		n = i + 1
		if i < len(t) {
			return d.str(&t[i])
		}
		return d.skip(4)
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
