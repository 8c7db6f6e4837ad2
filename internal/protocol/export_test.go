package protocol

// DecodeSpec exposes the spec decoder, uncapped, to the external tests.
func DecodeSpec(data []byte) (Spec, error) { return decodeSpec(data, 0, 0) }

// ToSpec converts a protocol to its JSON representation. Identity
// transitions are kept so the round trip is exact; CompleteWithIdentity is
// false in the result. It is the oracle for AppendJSON: encoding/json's
// Marshal of ToSpec must produce AppendJSON's bytes.
func (p *Protocol) ToSpec() Spec {
	s := Spec{
		Name:   p.name,
		Inputs: make(map[string]string, len(p.inputs)),
	}
	for q, name := range p.states {
		s.States = append(s.States, SpecState{Name: name, Output: p.Output(State(q))})
	}
	for _, t := range p.transitions {
		s.Transitions = append(s.Transitions, [4]string{
			p.states[t.P], p.states[t.Q], p.states[t.P2], p.states[t.Q2],
		})
	}
	if !p.Leaderless() {
		s.Leaders = make(map[string]int64)
		for q, n := range p.leaders {
			if n > 0 {
				s.Leaders[p.states[q]] = n
			}
		}
	}
	for x, name := range p.inputs {
		s.Inputs[name] = p.states[p.inputMap[x]]
	}
	return s
}
