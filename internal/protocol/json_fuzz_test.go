package protocol_test

import (
	"bytes"
	"slices"
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
// same bytes, which is what the engine's content hash relies on.
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
