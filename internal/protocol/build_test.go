package protocol

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestBuildMatchesReference checks Build's flat tables against a direct
// reading of its contract on random transition lists full of repeats: the
// table is the first addition of each normalized transition, then one
// identity per uncovered pair in (a, c) order; each pair lists its
// transitions in table order; Δt and its support agree with the
// transition.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(7)
		b := NewBuilder("r")
		for q := 0; q < n; q++ {
			b.AddState(string(rune('a'+q)), q%2)
		}
		b.AddInput("x", 0)
		var want []Transition
		for k := rng.Intn(4 * n * n); k > 0; k-- {
			s := func() State { return State(rng.Intn(n)) }
			t := Transition{s(), s(), s(), s()}
			b.AddTransition(t.P, t.Q, t.P2, t.Q2)
			if t = t.normalize(); !slices.Contains(want, t) {
				want = append(want, t)
			}
		}
		for a := State(0); int(a) < n; a++ {
			for c := a; int(c) < n; c++ {
				if !slices.ContainsFunc(want, func(t Transition) bool { return t.P == a && t.Q == c }) {
					want = append(want, Transition{a, c, a, c})
				}
			}
		}
		p := b.CompleteWithIdentity().MustBuild()
		if got := p.Transitions(); !slices.Equal(got, want) {
			t.Fatalf("n=%d: transitions\n%v\nwant\n%v", n, got, want)
		}
		deterministic := true
		for a := State(0); int(a) < n; a++ {
			for c := a; int(c) < n; c++ {
				var ids []int
				for i, t := range want {
					if t.P == a && t.Q == c {
						ids = append(ids, i)
					}
				}
				deterministic = deterministic && len(ids) == 1
				if got := p.TransitionsForPair(c, a); !slices.Equal(got, ids) {
					t.Fatalf("n=%d: pair ⟅%d,%d⟆ lists %v, want %v", n, a, c, got, ids)
				}
			}
		}
		if p.Deterministic() != deterministic {
			t.Fatalf("n=%d: Deterministic() = %v, want %v", n, !deterministic, deterministic)
		}
		for i, tr := range want {
			d := make([]int64, n)
			d[tr.P]--
			d[tr.Q]--
			d[tr.P2]++
			d[tr.Q2]++
			if !slices.Equal(p.Displacement(i), d) {
				t.Fatalf("Δ%d = %v, want %v", i, p.Displacement(i), d)
			}
			states, deltas := p.DeltaSupport(i)
			for q, x := range d {
				k := slices.Index(states, State(q))
				if (k >= 0) != (x != 0) || k >= 0 && deltas[k] != x {
					t.Fatalf("support of Δ%d = %v/%v, want the nonzero entries of %v", i, states, deltas, d)
				}
			}
		}
	}
}

// TestBuildWithoutIdentityReportsFirstPair: without identity completion,
// Build names the first uncovered pair in (a, c) order.
func TestBuildWithoutIdentityReportsFirstPair(t *testing.T) {
	b := NewBuilder("gap")
	p, q, r := b.AddState("p", 0), b.AddState("q", 0), b.AddState("r", 1)
	b.AddTransition(p, p, p, p)
	b.AddTransition(q, p, q, q)
	b.AddTransition(p, p, q, q) // a repeat pre-pair, still one covered pair
	b.AddTransition(r, r, r, r)
	b.AddInput("x", p)
	_, err := b.Build()
	if err == nil || err.Error() != ErrIncomplete.Error()+": ⟅p,r⟆" {
		t.Fatalf("Build error %v, want the ⟅p,r⟆ gap", err)
	}
}

// TestAppendJSONMatchesMarshal pins the canonical encoder to its oracle,
// encoding/json's Marshal of the protocol's Spec, on names that need every
// kind of escaping, including raw invalid UTF-8 (a builder never checks
// names), and on leader and input maps that must come out in byte order.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	names := []string{
		"plain", "", "é", "日本", "🐦", "<b>", "a&b", "q\"", `back\slash`, "tab\tnl\nret\r",
		"\b\f\x00\x1f\x7f", "\u2028\u2029", "bad\xff", "\xc3", "\xed\xa0\x80", "Z", "a", "B",
	}
	b := NewBuilder("names \u2028 <&> \xfe")
	for i, name := range names {
		q := b.AddState(name, i%2)
		if i%3 == 0 {
			b.AddLeader(q, int64(i))
		}
		if i%4 == 1 {
			b.AddInput("in:"+name, q)
		}
	}
	b.AddTransition(1, 2, 3, 4)
	b.AddTransition(5, 5, 6, 7)
	p := b.CompleteWithIdentity().MustBuild()
	want, err := json.Marshal(p.ToSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.AppendJSON([]byte("prefix")); !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("AppendJSON:\n%s\nencoding/json:\n%s", got, want)
	}
}

// TestParseBoundedCaps: a list over its cap is rejected with ErrTooLarge
// as soon as the decoder reaches the element past the cap, and a list at
// its cap is accepted.
func TestParseBoundedCaps(t *testing.T) {
	body := func(states, transitions int) []byte {
		var b bytes.Buffer
		b.WriteString(`{"states":[`)
		for q := range states {
			if q > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"name":"q%d"}`, q)
		}
		b.WriteString(`],"transitions":[`)
		for i := range transitions {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`["q0","q0","q0","q0"]`)
		}
		// A syntax error after the lists: only a list at its cap reaches it.
		b.WriteString(`],"inputs":{"x":"q0"},"completeWithIdentity":true,}`)
		return b.Bytes()
	}
	for _, tc := range []struct {
		states, transitions int
		tooLarge            bool
	}{
		{3, 5, false}, {4, 5, true}, {3, 6, true},
	} {
		_, err := ParseBounded(body(tc.states, tc.transitions), 3, 5)
		if err == nil || errors.Is(err, ErrTooLarge) != tc.tooLarge {
			t.Errorf("%d states, %d transitions: error %v, want ErrTooLarge %v", tc.states, tc.transitions, err, tc.tooLarge)
		}
	}
}
