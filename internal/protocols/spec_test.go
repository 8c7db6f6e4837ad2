package protocols

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/protocol"
)

func TestFromNameValid(t *testing.T) {
	tests := []struct {
		spec   string
		states int
		inputs int
	}{
		{"flock:5", 6, 1},
		{"succinct:3", 5, 1},
		{"binary:7", 6, 1},
		{"leaderflock:2", 5, 1},
		{"majority", 4, 2},
		{"parity", 4, 1},
		{"mod:3:1", 5, 1},
		{"mod:5:1,4", 7, 1},
		{"true", 1, 1},
		{"false", 1, 1},
	}
	for _, tc := range tests {
		e, err := FromName(tc.spec)
		if err != nil {
			t.Errorf("FromName(%q): %v", tc.spec, err)
			continue
		}
		if got := e.Protocol.NumStates(); got != tc.states {
			t.Errorf("%q: %d states, want %d", tc.spec, got, tc.states)
		}
		if got := e.Protocol.NumInputs(); got != tc.inputs {
			t.Errorf("%q: %d inputs, want %d", tc.spec, got, tc.inputs)
		}
	}
}

func TestFromNameInvalid(t *testing.T) {
	for _, spec := range []string{
		"", "nonsense", "flock", "flock:", "flock:x", "flock:0", "succinct:99",
		"binary:-1", "binary:", "mod:0:1", "mod:3", "mod:3:", "mod:3:x",
		"leaderflock:abc", "leaderflock:0", "succinct:-1", ":", "::", "flock:5:extra:junk:x",
	} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			// Malformed specs must return errors — never panic.
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("FromName(%q) panicked: %v", spec, r)
				}
			}()
			if _, err := FromName(spec); err == nil {
				t.Errorf("FromName(%q) should fail", spec)
			}
		})
	}
	if _, err := FromName("zzz"); err == nil || !strings.Contains(err.Error(), "unknown spec") {
		t.Errorf("unknown spec error should hint at valid specs: %v", err)
	}
}

func TestRegistryResolvesBuiltins(t *testing.T) {
	r := NewRegistry()
	for _, spec := range []string{"flock:5", "majority", "mod:3:1,2", "binary:7"} {
		e, err := r.Resolve(spec)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", spec, err)
		}
		if e.Protocol == nil || e.Pred == nil {
			t.Fatalf("Resolve(%q): incomplete entry", spec)
		}
	}
	for _, spec := range []string{"", "flock:", "mod:3:x", "nonsense:1"} {
		if _, err := r.Resolve(spec); err == nil {
			t.Errorf("Resolve(%q) should fail", spec)
		}
	}
}

func TestRegistryUserConstructors(t *testing.T) {
	r := NewRegistry()
	ctor := func(args []string) (Entry, error) {
		if len(args) != 1 {
			return Entry{}, errors.New("want exactly one arg")
		}
		return Parity(), nil
	}
	if err := r.Register("myparity", ctor); err != nil {
		t.Fatalf("Register: %v", err)
	}
	e, err := r.Resolve("myparity:1")
	if err != nil {
		t.Fatalf("Resolve(myparity:1): %v", err)
	}
	want := Parity()
	if e.Protocol.NumStates() != want.Protocol.NumStates() {
		t.Errorf("resolved %d states, want %d", e.Protocol.NumStates(), want.Protocol.NumStates())
	}
	if _, err := r.Resolve("myparity"); err == nil {
		t.Error("constructor error should propagate")
	}
	// Registration hygiene.
	for name, c := range map[string]Constructor{
		"":         ctor,
		"a:b":      ctor,
		"flock":    ctor, // shadows builtin
		"myparity": ctor, // duplicate
		"nilctor":  nil,
	} {
		if err := r.Register(name, c); err == nil {
			t.Errorf("Register(%q) should fail", name)
		}
	}
	// A fresh registry does not see another registry's constructors.
	if _, err := NewRegistry().Resolve("myparity:1"); err == nil {
		t.Error("registries must be isolated")
	}
}

// TestRegistrySpecRoundTrip checks that every builtin spec resolves to a
// protocol that survives the JSON round trip intact when re-resolved as an
// inline protocol.
func TestRegistrySpecRoundTrip(t *testing.T) {
	r := NewRegistry()
	for _, spec := range []string{
		"flock:4", "succinct:2", "binary:6", "leaderflock:2",
		"majority", "parity", "mod:4:1,3", "true", "false",
	} {
		e, err := r.Resolve(spec)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", spec, err)
		}
		data, err := json.Marshal(e.Protocol)
		if err != nil {
			t.Fatalf("%q: marshal: %v", spec, err)
		}
		p2, err := protocol.Parse(data)
		if err != nil {
			t.Fatalf("%q: reparse: %v", spec, err)
		}
		if p2.NumStates() != e.Protocol.NumStates() ||
			p2.NumTransitions() != e.Protocol.NumTransitions() ||
			p2.NumInputs() != e.Protocol.NumInputs() ||
			p2.Leaderless() != e.Protocol.Leaderless() {
			t.Errorf("%q: round trip changed the protocol", spec)
		}
		data2, err := json.Marshal(p2)
		if err != nil {
			t.Fatalf("%q: re-marshal: %v", spec, err)
		}
		if string(data) != string(data2) {
			t.Errorf("%q: JSON not canonical under round trip", spec)
		}
	}
}

func TestSpecHelpAndNames(t *testing.T) {
	if len(SpecHelp()) != len(builtins) {
		t.Errorf("SpecHelp lists %d specs, want %d", len(SpecHelp()), len(builtins))
	}
	r := NewRegistry()
	if err := r.Register("custom", func([]string) (Entry, error) { return Parity(), nil }); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, n := range r.Names() {
		if n == "custom" {
			found = true
		}
	}
	if !found {
		t.Error("Names() should include registered constructors")
	}
}

func TestIsBuiltin(t *testing.T) {
	for spec, want := range map[string]bool{
		"flock:5": true, "flock": true, "majority": true, "mod:3:1": true,
		"evens": false, "zzz:3": false, "": false, ":flock": false,
	} {
		if got := IsBuiltin(spec); got != want {
			t.Errorf("IsBuiltin(%q) = %t, want %t", spec, got, want)
		}
	}
	// A builtin head cannot be shadowed, which is what makes memoizing
	// builtin specs registry-independent.
	if err := NewRegistry().Register("flock", func([]string) (Entry, error) { return Parity(), nil }); err == nil {
		t.Fatal("registering a builtin name succeeded")
	}
}
