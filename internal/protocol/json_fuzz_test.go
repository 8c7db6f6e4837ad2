package protocol_test

import (
	"bytes"
	"encoding/json"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/protocols"
)

// FuzzParseProtocol feeds arbitrary bytes to the inline-protocol decoder
// (the JSON a /v1/analyze request may carry instead of a registry spec).
// Parse must never panic, and an accepted protocol must be well formed —
// at least one state and one input, every state pair enabled, every
// transition conserving agents — and its canonical encoding must be a
// fixed point: encoding it, parsing that and encoding again yields the
// same bytes, which is what the engine's content hash relies on. The
// encoding must also be byte-identical to encoding/json's Marshal of the
// protocol's Spec, the form content hashes were first taken over.
func FuzzParseProtocol(f *testing.F) {
	names := make([]string, 0)
	for name := range protocols.Catalog() {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		data, err := protocols.Catalog()[name].Protocol.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"m","states":[{"name":"A","output":1},{"name":"B","output":0}],` +
		`"transitions":[["A","B","B","B"]],"leaders":{"A":1},"inputs":{"x":"A"},"completeWithIdentity":true}`))
	f.Add([]byte(`{"states":[{"name":"A","output":7}],"inputs":{"x":"A","y":"A"},"completeWithIdentity":true}`))
	f.Add([]byte(`{"states":[{"name":"A"},{"name":"A"}],"inputs":{"x":"A"}}`))
	f.Add([]byte(`{"states":[{"name":"A"}],"transitions":[["A","A","A","Z"]],"inputs":{"x":"A"}}`))
	f.Add([]byte(`{"states":[{"name":"A"}],"leaders":{"A":-1},"inputs":{"x":"A"},"completeWithIdentity":true}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<10 {
			return // Build allocates a displacement vector per state pair
		}
		p, err := protocol.Parse(data)
		if err != nil {
			return
		}
		d := p.NumStates()
		if d < 1 || p.NumInputs() < 1 {
			t.Fatalf("accepted a protocol with %d states and %d inputs", d, p.NumInputs())
		}
		for a := protocol.State(0); int(a) < d; a++ {
			for c := a; int(c) < d; c++ {
				if len(p.TransitionsForPair(a, c)) == 0 {
					t.Fatalf("accepted an incomplete protocol: no transition for ⟅%d,%d⟆", a, c)
				}
			}
		}
		for i := 0; i < p.NumTransitions(); i++ {
			var sum int64
			for _, x := range p.Displacement(i) {
				sum += x
			}
			if sum != 0 {
				t.Fatalf("transition %d changes the agent count by %d", i, sum)
			}
		}
		enc, err := p.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted protocol does not encode: %v", err)
		}
		if want, _ := json.Marshal(p.ToSpec()); !bytes.Equal(enc, want) {
			t.Fatalf("canonical encoding differs from encoding/json's:\n%s\n%s", enc, want)
		}
		q, err := protocol.Parse(enc)
		if err != nil {
			t.Fatalf("canonical encoding %s does not parse: %v", enc, err)
		}
		again, err := q.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("canonical encoding is not a fixed point:\n%s\n%s", enc, again)
		}
	})
}

// FuzzDecodeSpec checks the spec decoder against encoding/json, its oracle:
// for arbitrary bytes the two must agree on whether the document is a
// Spec, and on the decoded Spec when it is (error texts may differ). The
// seeds cover the corners of Unmarshal's semantics the decoder mirrors.
func FuzzDecodeSpec(f *testing.F) {
	for _, name := range slices.Sorted(maps.Keys(protocols.Catalog())) {
		data, err := protocols.Catalog()[name].Protocol.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, seed := range decodeSpecSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := protocol.DecodeSpec(data)
		var want protocol.Spec
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decoder error %v, encoding/json error %v on %q", gotErr, wantErr, data)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %#v, encoding/json %#v from %q", got, want, data)
		}
	})
}

// decodeSpecSeeds are documents probing encoding/json's decoding rules.
var decodeSpecSeeds = []string{
	`null`, ` null `, `{}`, `[]`, `""`, `1`, `true`, ``, ` `, `{`, `{}x`, `{} {}`, "{}\x00",
	`{"NAME":"a","States":[{"NAME":"A","OUTPUT":1}],"ſtates":null,"INPUTS":{"x":"A"}}`,
	`{"name":"a","unknown":{"deep":[1,2,{"x":null}],"s":"\u00e9"},"states":[]}`,
	`{"states":[{"name":"A","output":1},{"name":"B","output":1}],"states":[{"name":"C"}],"states":[{"name":"D"},{"name":"E"}]}`,
	`{"transitions":[["a","b","c","d"],["e","f","g","h"]],"transitions":[["x"],[null,"y"]]}`,
	`{"transitions":[["a","b","c","d","e","f"],[],null]}`,
	`{"inputs":{"x":"A","y":null},"inputs":{"z":"B"},"leaders":{"A":1,"B":null},"leaders":null}`,
	`{"states":null,"transitions":null,"inputs":null,"name":null,"completeWithIdentity":null}`,
	`{"states":[null,{"name":"A","output":null,"extra":[]}]}`,
	`{"name":"\ud83d\udc26 \ud800 \udc00\u00e9\n\t\/\"","inputs":{"\u2028":"\u0000"}}`,
	"{\"name\":\"bad\xff\xfe\xed\xa0\x80\xc3\",\"inputs\":{\"\xf0\x9f\":\"x\"}}",
	`{"states":[{"name":"A","output":9223372036854775807}],"leaders":{"A":-9223372036854775808}}`,
	`{"states":[{"name":"A","output":9223372036854775808}]}`,
	`{"leaders":{"A":1.0}}`, `{"leaders":{"A":1e2}}`, `{"leaders":{"A":-0}}`, `{"leaders":{"A":01}}`,
	`{"states":[{"name":"A","output":"1"}]}`, `{"name":1}`, `{"states":{}}`, `{"inputs":[]}`,
	`{"completeWithIdentity":true,"completeWithIdentity":false}`, `{"completeWithIdentity":1}`,
	`{"name":"a",}`, `{"name" "a"}`, `{name:"a"}`, "{\"name\":\"a\x01\"}", `{"name":"\x"}`,
	`{"name":"\u12"}`, `{"a":[1,]}`, `{"a":-}`, `{"a":1.}`, `{"a":.5}`, `{"a":1e}`, `{"a":nul}`,
	// encoding/json's nesting limit: 10000 levels pass, 10001 do not.
	`{"a":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"a":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"states":[{"x":` + strings.Repeat(`{"y":`, 9997) + `1` + strings.Repeat("}", 9997) + `}]}`,
	`{"states":[{"x":` + strings.Repeat(`{"y":`, 9998) + `1` + strings.Repeat("}", 9998) + `}]}`,
}
