package jsonenc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxNesting is encoding/json's nesting limit, which the Decoder mirrors so
// the two accept the same documents.
const maxNesting = 10000

// Decoder reads one JSON document in a single pass over its bytes, the
// decode side of the hand-written encoders: each decode method has exactly
// the outcome encoding/json's Unmarshal has on a Go value of the same type.
// That means null leaving a string, number or boolean untouched and
// resetting a slice, a repeated key decoding again into the value it
// already holds, and invalid UTF-8 in strings replaced by U+FFFD. Keys are
// matched with Field, as encoding/json matches them. Where encoding/json
// records a type mismatch and carries on, the Decoder stops at once:
// either way the document is rejected.
//
// Object and Array count the nesting depth themselves, so a decoder built
// from these methods rejects exactly the documents nested deeper than
// encoding/json allows.
type Decoder struct {
	data    []byte
	off     int
	depth   int
	context string // error prefix
	buf     []byte // unescaped string scratch
}

// NewDecoder returns a Decoder positioned at the start of data. Its errors
// begin with context, such as "protocol: parsing spec".
func NewDecoder(data []byte, context string) Decoder {
	return Decoder{data: data, context: context}
}

// syntaxError reports a syntax error at the current offset, or the end of
// the input when the decoder is there.
func (d *Decoder) syntaxError(where string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("%s: unexpected end of JSON input", d.context)
	}
	return fmt.Errorf("%s: invalid character %q %s (offset %d)", d.context, d.data[d.off], where, d.off)
}

// mismatch reports that the value at the current offset is not of the
// wanted kind, or that the input ended before it.
func (d *Decoder) mismatch(want string) error {
	if d.off >= len(d.data) {
		return d.syntaxError("")
	}
	return fmt.Errorf("%s: want %s at offset %d", d.context, want, d.off)
}

// Peek skips whitespace and returns the next byte, or 0 at the end.
func (d *Decoder) Peek() byte {
	// Compact JSON has no whitespace to skip: every byte above ' ' is a
	// token's first.
	if d.off < len(d.data) && d.data[d.off] > ' ' {
		return d.data[d.off]
	}
	return d.skipSpace()
}

// skipSpace is Peek past whitespace.
func (d *Decoder) skipSpace() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// End checks that nothing but whitespace follows the decoded value, as
// Unmarshal does. A stream decoder leaves what follows unread instead.
func (d *Decoder) End() error {
	if d.Peek(); d.off < len(d.data) {
		return d.syntaxError("after top-level value")
	}
	return nil
}

// literal consumes the literal word (null, true or false) at the offset.
func (d *Decoder) literal(word string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(word)) {
		return d.syntaxError("in literal " + word)
	}
	d.off += len(word)
	return nil
}

// number consumes a number token and returns its bytes.
func (d *Decoder) number() ([]byte, error) {
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

// Text consumes the string token at the offset and returns its value: the
// bytes between the quotes when they are valid UTF-8 without escapes, else
// their unescaped form, valid until the next string is decoded.
func (d *Decoder) Text() ([]byte, error) {
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
func (d *Decoder) unescape(s []byte) []byte {
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

// key consumes an object key and the colon after it, returning the key's
// unescaped bytes (valid until the next string is decoded).
func (d *Decoder) key() ([]byte, error) {
	if d.Peek() != '"' {
		return nil, d.syntaxError("looking for beginning of object key string")
	}
	k, err := d.Text()
	if err != nil {
		return nil, err
	}
	if d.Peek() != ':' {
		return nil, d.syntaxError("after object key")
	}
	d.off++
	return k, nil
}

// enter opens one nesting level at the container start under the offset.
func (d *Decoder) enter() error {
	if d.depth >= maxNesting {
		return d.syntaxError("exceeding max depth")
	}
	d.depth++
	d.off++ // { or [
	return nil
}

// Object consumes the object at the offset, calling field for each key with
// the decoder positioned at its value. The key's bytes are valid until the
// next string is decoded.
func (d *Decoder) Object(field func(key []byte) error) error {
	if err := d.enter(); err != nil {
		return err
	}
	if d.Peek() == '}' {
		d.off++
		d.depth--
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
		switch d.Peek() {
		case ',':
			d.off++
		case '}':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// Array consumes the array at the offset, calling elem for element i with
// the decoder positioned at it.
func (d *Decoder) Array(elem func(i int) error) error {
	if err := d.enter(); err != nil {
		return err
	}
	if d.Peek() == ']' {
		d.off++
		d.depth--
		return nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return err
		}
		switch d.Peek() {
		case ',':
			d.off++
		case ']':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntaxError("after array element")
		}
	}
}

// Skip consumes any value, checking its syntax.
func (d *Decoder) Skip() error {
	switch c := d.Peek(); {
	case c == '{':
		return d.Object(func([]byte) error { return d.Skip() })
	case c == '[':
		return d.Array(func(int) error { return d.Skip() })
	case c == '"':
		_, err := d.Text()
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

// Raw consumes any value and returns its bytes as they stand in the input,
// which is what encoding/json hands a json.RawMessage (the literal null
// included). The span aliases the input.
func (d *Decoder) Raw() ([]byte, error) {
	d.Peek()
	start := d.off
	if err := d.Skip(); err != nil {
		return nil, err
	}
	return d.data[start:d.off:d.off], nil
}

// Field reports whether key names the field name, matched as encoding/json
// matches keys: exactly, else under Unicode case folding.
func Field(key []byte, name string) bool {
	return string(key) == name || bytes.EqualFold(key, []byte(name))
}

// Open checks that the next value is the container start (an object or an
// array): it reports false, after consuming the literal, for null, and an
// error for any other value.
func (d *Decoder) Open(start byte, want string) (bool, error) {
	switch d.Peek() {
	case start:
		return true, nil
	case 'n':
		return false, d.literal("null")
	}
	return false, d.mismatch(want)
}

// Str decodes a string value into *dst; null leaves it unchanged.
func (d *Decoder) Str(dst *string) error {
	switch d.Peek() {
	case '"':
		v, err := d.Text()
		if err != nil {
			return err
		}
		*dst = string(v)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("string")
}

// integer consumes an integer token, or null, and returns its magnitude
// and sign. A fraction, an exponent, a '-' when allowNeg is false or a
// magnitude above limit (limit+1 when negative) is an error.
func (d *Decoder) integer(allowNeg bool, limit uint64) (u uint64, neg, null bool, err error) {
	switch c := d.Peek(); {
	case c == '-' || '0' <= c && c <= '9':
		tok, err := d.number()
		if err != nil {
			return 0, false, false, err
		}
		neg = tok[0] == '-'
		if neg {
			if !allowNeg {
				return 0, false, false, fmt.Errorf("%s: want an unsigned integer at offset %d", d.context, d.off)
			}
			tok = tok[1:]
			limit++
		}
		for _, c := range tok {
			if c < '0' || c > '9' {
				return 0, false, false, fmt.Errorf("%s: want an integer at offset %d", d.context, d.off)
			}
			v := uint64(c - '0')
			if u > (limit-v)/10 {
				return 0, false, false, fmt.Errorf("%s: integer overflow at offset %d", d.context, d.off)
			}
			u = u*10 + v
		}
		return u, neg, false, nil
	case c == 'n':
		return 0, false, true, d.literal("null")
	}
	return 0, false, false, d.mismatch("number")
}

// Int64 decodes an integer value into *dst; null leaves it unchanged. A
// fraction, an exponent or a value outside the int64 range is an error.
func (d *Decoder) Int64(dst *int64) error {
	u, neg, null, err := d.integer(true, math.MaxInt64)
	if err != nil || null {
		return err
	}
	*dst = int64(u)
	if neg {
		*dst = -*dst
	}
	return nil
}

// Int decodes an integer value into *dst, as Int64 does.
func (d *Decoder) Int(dst *int) error {
	v := int64(*dst)
	if err := d.Int64(&v); err != nil {
		return err
	}
	if int64(int(v)) != v {
		return fmt.Errorf("%s: integer overflow at offset %d", d.context, d.off)
	}
	*dst = int(v)
	return nil
}

// Uint64 decodes an unsigned integer value into *dst; null leaves it
// unchanged. A sign (even on zero), a fraction, an exponent or a value
// above the uint64 range is an error.
func (d *Decoder) Uint64(dst *uint64) error {
	u, _, null, err := d.integer(false, math.MaxUint64)
	if err != nil || null {
		return err
	}
	*dst = u
	return nil
}

// Bool decodes a boolean value into *dst; null leaves it unchanged.
func (d *Decoder) Bool(dst *bool) error {
	switch d.Peek() {
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

// ErrTooMany is returned by Slice for an array longer than its limit.
var ErrTooMany = errors.New("too many elements")

// Slice decodes an array into *dst as encoding/json decodes into a slice:
// element i is decoded in place over whatever the backing array holds
// there, the array grows only past its capacity, and the result is
// truncated to the decoded length (an empty array gives an empty non-nil
// slice, null a nil one). A fresh backing array gets capacity hint; the
// outcome does not depend on capacity, since growing copies every element
// written so far and the rest are zero either way. When limit is positive,
// element limit (counting from 0) is an ErrTooMany error, raised before
// the slice grows to hold it.
func Slice[T any](d *Decoder, dst *[]T, limit, hint int, elem func(*T) error) error {
	ok, err := d.Open('[', "array")
	if !ok {
		if err == nil {
			*dst = nil
		}
		return err
	}
	s := *dst
	n := 0
	err = d.Array(func(i int) error {
		if limit > 0 && i >= limit {
			return fmt.Errorf("%w: at least %d (limit %d)", ErrTooMany, i+1, limit)
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
