package protocols

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Constructor builds a protocol entry from the colon-separated arguments of
// a spec string (everything after the head token). A spec "myproto:3:x"
// registered under "myproto" invokes the constructor with args ["3", "x"].
type Constructor func(args []string) (Entry, error)

// Registry resolves compact protocol spec strings ("flock:8", "majority")
// to protocol entries. Every registry resolves the builtin zoo; user
// constructors registered with Register extend it at runtime. A Registry is
// safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	ctors map[string]Constructor
}

// NewRegistry returns a registry resolving the builtin zoo specs.
func NewRegistry() *Registry {
	return &Registry{ctors: make(map[string]Constructor)}
}

// Register adds a user constructor under the given head token. The name must
// be non-empty, colon-free, and must not collide with a builtin or an
// already-registered constructor.
func (r *Registry) Register(name string, ctor Constructor) error {
	if name == "" {
		return fmt.Errorf("protocols: register: empty name")
	}
	if strings.Contains(name, ":") {
		return fmt.Errorf("protocols: register: name %q must not contain ':'", name)
	}
	if ctor == nil {
		return fmt.Errorf("protocols: register: nil constructor for %q", name)
	}
	if _, ok := builtins[name]; ok {
		return fmt.Errorf("protocols: register: %q shadows a builtin spec", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ctors[name]; ok {
		return fmt.Errorf("protocols: register: %q already registered", name)
	}
	r.ctors[name] = ctor
	return nil
}

// Resolve builds the protocol entry named by spec, trying user-registered
// constructors first and falling back to the builtin zoo.
func (r *Registry) Resolve(spec string) (Entry, error) {
	if spec == "" {
		return Entry{}, fmt.Errorf("protocols: empty spec (try %s)", strings.Join(SpecHelp(), ", "))
	}
	parts := strings.Split(spec, ":")
	r.mu.RLock()
	ctor, ok := r.ctors[parts[0]]
	r.mu.RUnlock()
	if ok {
		e, err := ctor(parts[1:])
		if err != nil {
			return Entry{}, fmt.Errorf("protocols: spec %q: %w", spec, err)
		}
		if e.Protocol == nil {
			return Entry{}, fmt.Errorf("protocols: spec %q: constructor returned no protocol", spec)
		}
		return e, nil
	}
	return FromName(spec)
}

// IsBuiltin reports whether the head token of spec names a builtin
// protocol. Such a spec resolves to the same protocol in every registry:
// Register rejects builtin names, and every builtin constructor is
// deterministic.
func IsBuiltin(spec string) bool {
	head, _, _ := strings.Cut(spec, ":")
	_, ok := builtins[head]
	return ok
}

// Names lists the resolvable spec head tokens — builtin names plus
// user-registered ones — sorted. Each entry is itself a valid spec prefix
// ("flock" for "flock:8"); see SpecHelp for the argument grammar.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(builtins))
	for name := range builtins {
		out = append(out, name)
	}
	r.mu.RLock()
	for name := range r.ctors {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// defaultRegistry backs the package-level Register/Resolve used by the
// public pp facade.
var defaultRegistry = NewRegistry()

// DefaultRegistry returns the process-wide registry.
func DefaultRegistry() *Registry { return defaultRegistry }

// Register adds a user constructor to the default registry.
func Register(name string, ctor Constructor) error {
	return defaultRegistry.Register(name, ctor)
}

// Resolve resolves a spec against the default registry.
func Resolve(spec string) (Entry, error) {
	return defaultRegistry.Resolve(spec)
}
