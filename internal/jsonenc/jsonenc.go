// Package jsonenc holds the repository's hand-written JSON appenders: the
// pieces of encoding/json's output that the reflection-free encoders
// (protocol.AppendJSON, whose bytes the content hash is taken over, and the
// sweep row encoder) are built from. Each appender writes exactly the bytes
// encoding/json writes for the same Go value.
package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// String appends s as a JSON string with encoding/json's escaping: quotes,
// backslashes and control bytes escaped (\b, \f, \n, \r and \t by name, the
// rest as \u00XX), U+2028 and U+2029 as \u2028 and \u2029, and each invalid
// UTF-8 byte as \ufffd. With html set, the HTML characters <, > and & are
// escaped too, as \u003c, \u003e and \u0026 (Marshal's default); without
// it they are written as they are (an Encoder with SetEscapeHTML(false)).
func String(dst []byte, s string, html bool) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && (!html || b != '<' && b != '>' && b != '&') {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Buf accumulates one JSON document as encoding/json's Encoder writes it
// with HTML escaping off. Each value method first appends key, the literal
// before the value: punctuation and the quoted field name, such as
// `,"size":`. A value encoding/json refuses — a NaN or infinite float, or
// an error from a Marshal fallback — sets Err, which the caller checks once
// at the end: the document is then unusable, as encoding/json would have
// produced none.
type Buf struct {
	B   []byte
	Err error
}

// Raw appends s verbatim.
func (b *Buf) Raw(s string) { b.B = append(b.B, s...) }

// String appends key and s as a JSON string.
func (b *Buf) String(key, s string) { b.B = String(append(b.B, key...), s, false) }

// Int appends key and an integer.
func (b *Buf) Int(key string, i int64) { b.B = strconv.AppendInt(append(b.B, key...), i, 10) }

// Bool appends key and true or false.
func (b *Buf) Bool(key string, v bool) { b.B = strconv.AppendBool(append(b.B, key...), v) }

// Float appends key and f as encoding/json writes a float64: the shortest
// round-tripping decimal, in exponent form (with no leading zero in a
// negative exponent) below 1e-6 and from 1e21 in magnitude. NaN and ±Inf
// set Err.
func (b *Buf) Float(key string, f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		b.fail(&json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)})
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b.B = strconv.AppendFloat(append(b.B, key...), f, format, -1, 64)
	if n := len(b.B); format == 'e' && n >= 4 && b.B[n-4] == 'e' && b.B[n-3] == '-' && b.B[n-2] == '0' {
		b.B[n-2] = b.B[n-1]
		b.B = b.B[:n-1]
	}
}

// Ints appends key and an integer slice: null when nil, as encoding/json
// writes a nil slice.
func (b *Buf) Ints(key string, v []int64) {
	b.Raw(key)
	if v == nil {
		b.Raw("null")
		return
	}
	b.Raw("[")
	for i, x := range v {
		if i > 0 {
			b.Raw(",")
		}
		b.Int("", x)
	}
	b.Raw("]")
}

// Marshal appends key and v as encoding/json encodes it with HTML escaping
// off: the fallback for payloads too rare to be worth a hand-written
// encoder.
func (b *Buf) Marshal(key string, v any) {
	w := bytes.NewBuffer(append(b.B, key...))
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		b.fail(err)
		return
	}
	b.B = w.Bytes()[:w.Len()-1] // Encode's trailing newline
}

func (b *Buf) fail(err error) {
	if b.Err == nil {
		b.Err = err
	}
}
