package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/protocols"
)

// flockBody is the /v1/analyze body of the end-to-end benchmark's miss
// and disk workloads: a stable request carrying flock-of-birds(η) inline.
func flockBody(tb testing.TB, eta int64) []byte {
	tb.Helper()
	inline, err := protocols.FlockOfBirds(eta).Protocol.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	return []byte(`{"kind":"stable","protocol":{"inline":` + string(inline) + `}}`)
}

// decodeRequestSeeds probe the decoding rules DecodeRequest shares with
// encoding/json: key case folding, unknown fields, null on every kind of
// field, repeated keys, in-place slice reuse, pointer reuse, invalid UTF-8,
// integer overflow and fractions, and bytes after the first value.
var decodeRequestSeeds = []string{
	``,
	`   `,
	`null`,
	`null garbage`,
	`[]`,
	`"stable"`,
	`5`,
	`{}`,
	`{"kind":"stable"} {"kind":"verify"}`,
	`{"kind":"stable"}garbage`,
	`{"kind":"stable"`,
	`{"KIND":"stable","Protocol":{"SPEC":"flock:3"},"sEeD":4}`,
	"{\"Kind\":\"stable\"}",
	`{"kind":"stable","protocol":{"spec":"majority"}}`,
	`{"kind":"stable","protocol":{"inline":null}}`,
	`{"kind":"stable","protocol":{"inline":{"a" : [1, 2] }}}`,
	`{"kind":"stable","protocol":{"inline":"x"},"protocol":{"inline":[ true ]}}`,
	`{"kind":"stable","protocol":{"spec":"flock:3"},"protocol":null,"protocol":{"spec":null}}`,
	`{"kind":"stable","protocol":"flock:3"}`,
	`{"kind":null,"input":null,"predicate":null,"seed":null,"exactOracle":null}`,
	`{"input":[1,2,3],"input":[9],"input":[null,null,null]}`,
	`{"input":[1,2],"input":[]}`,
	`{"input":[1,"x"]}`,
	`{"predicate":{"kind":"mod","modulus":3},"predicate":{"residue":1}}`,
	`{"predicate":{"kind":"counting"},"predicate":null,"predicate":{"threshold":2}}`,
	`{"predicate":[]}`,
	`{"kind":"st\xffable","protocol":{"spec":"\ud800x"}}`,
	`{"kind":"🐦","protocol":{"spec":"a\u0000b\"c"}}`,
	`{"seed":18446744073709551615}`,
	`{"seed":18446744073709551616}`,
	`{"seed":-0}`,
	`{"seed":-1}`,
	`{"seed":1e3}`,
	`{"maxSteps":-9223372036854775808}`,
	`{"maxSteps":-9223372036854775809}`,
	`{"runs":9223372036854775808}`,
	`{"limit":1.5}`,
	`{"limit":1.0}`,
	`{"minSize":012}`,
	`{"exactOracle":true,"exactOracle":false,"exactOracle":"true"}`,
	`{"traceEvery":5,"timeoutMillis":20,"states":4,"transitions":10,"maxSize":9,"minSize":2}`,
	`{"unknown":{"deep":[1,{"x":null}]},"kind":"bounds"}`,
	`{"kind":"stable",}`,
	`{"kind":"stable" "seed":1}`,
	strings.Repeat(`[`, 10001) + strings.Repeat(`]`, 10001),
	`{"x":` + strings.Repeat(`[`, 9999) + strings.Repeat(`]`, 9999) + `}`,
	`{"x":` + strings.Repeat(`[`, 10000) + strings.Repeat(`]`, 10000) + `}`,
}

// FuzzDecodeRequest holds DecodeRequest to encoding/json's stream decoder,
// the /v1/analyze decoder it replaces: both accept and reject the same
// inputs, and accepted ones decode to deeply equal requests, Inline byte
// for byte.
func FuzzDecodeRequest(f *testing.F) {
	for _, eta := range []int64{10, 11, 12} {
		f.Add(flockBody(f, eta))
	}
	for _, req := range roundTripRequests() {
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range decodeRequestSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want Request
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		got, err := DecodeRequest(data)
		switch {
		case (err == nil) != (wantErr == nil):
			t.Fatalf("DecodeRequest(%q): error %v, encoding/json: %v", data, err, wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("DecodeRequest(%q):\n got %#v\nwant %#v", data, got, want)
		}
	})
}

// TestDecodeRequestSeeds runs the seed cases with their outcomes visible,
// so a change in the rules shows which case moved.
func TestDecodeRequestSeeds(t *testing.T) {
	rejected := 0
	for _, seed := range decodeRequestSeeds {
		var want Request
		wantErr := json.NewDecoder(strings.NewReader(seed)).Decode(&want)
		got, err := DecodeRequest([]byte(seed))
		if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%.60q: got %#v, %v; want %#v, %v", seed, got, err, want, wantErr)
		}
		if err != nil {
			rejected++
		}
	}
	if rejected == 0 || rejected == len(decodeRequestSeeds) {
		t.Fatalf("%d of %d seeds rejected; the seeds should probe both outcomes", rejected, len(decodeRequestSeeds))
	}
}

// BenchmarkDecodeRequest times decoding the /v1/analyze envelope of the
// end-to-end benchmark's flock(10..12) bodies: hand runs DecodeRequest,
// json the encoding/json stream decoder it replaces (the before side).
func BenchmarkDecodeRequest(b *testing.B) {
	for _, eta := range []int64{10, 11, 12} {
		body := flockBody(b, eta)
		b.Run(fmt.Sprintf("flock%d/hand", eta), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := DecodeRequest(body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("flock%d/json", eta), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				var req Request
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
