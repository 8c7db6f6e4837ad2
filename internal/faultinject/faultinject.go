// Package faultinject is the deterministic fault-injection harness behind
// the durability layer: named failpoints compiled into the journal, the
// artifact store and the cluster client answer "should this operation fail
// now?" according to an explicitly configured schedule.
//
// The harness is off by default and costs one atomic load per failpoint
// when disabled. It turns on in exactly two ways:
//
//   - the PP_FAULTS environment variable, read once at process start, so
//     real ppserve/ppsweep processes can run crash drills without a
//     recompile ("env-gated"); or
//   - Configure, called programmatically by tests.
//
// A schedule is a semicolon-separated list of failpoint clauses:
//
//	journal.append=at:3          fail exactly the 3rd call
//	store.read=after:2           fail every call after the 2nd
//	store.write=every:5          fail every 5th call
//	worker.response=prob:0.2:7   fail with probability 0.2, seed 7
//
// Schedules are deterministic: at/after/every count calls atomically, and
// prob draws from a per-failpoint SplitMix64 stream seeded by the clause,
// so the same schedule fails the same calls in every run. The failpoint
// catalog (the names wired into the codebase) is listed in Catalog and
// documented in docs/operations.md.
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrInjected is the sentinel every injected failure wraps, so callers and
// tests can distinguish injected faults from real ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Failpoint names wired into the codebase — the catalog.
const (
	// PointJournalAppend fails sweep-journal record appends (the write).
	PointJournalAppend = "journal.append"
	// PointJournalSync fails the fsync following a journal append.
	PointJournalSync = "journal.sync"
	// PointStoreRead makes an artifact-store read behave as a corrupt
	// entry: the entry is deleted and the lookup misses.
	PointStoreRead = "store.read"
	// PointStoreWrite fails artifact-store writes.
	PointStoreWrite = "store.write"
	// PointStoreDelete fails the artifact-store GC's eviction deletes (the
	// entry stays on disk and stays tracked; the next write over budget
	// retries it).
	PointStoreDelete = "store.delete"
	// PointWorkerResponse fails the coordinator's handling of a worker's
	// sweep-range response (as if the stream broke mid-flight).
	PointWorkerResponse = "worker.response"
	// PointHeartbeat fails the worker agent's heartbeat call.
	PointHeartbeat = "cluster.heartbeat"
)

// Catalog lists every failpoint name the codebase hits.
var Catalog = []string{
	PointJournalAppend,
	PointJournalSync,
	PointStoreRead,
	PointStoreWrite,
	PointStoreDelete,
	PointWorkerResponse,
	PointHeartbeat,
}

type mode uint8

const (
	modeAt mode = iota + 1
	modeAfter
	modeEvery
	modeProb
)

// point is one configured failpoint schedule.
type point struct {
	mode  mode
	n     uint64  // at/after/every operand
	p     float64 // prob operand
	calls atomic.Uint64
	fired atomic.Uint64
	// rng is the per-point SplitMix64 state of prob schedules; advanced
	// under mu so concurrent hits draw a deterministic stream.
	mu  sync.Mutex
	rng uint64
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	points  map[string]*point
)

func init() {
	if spec := os.Getenv("PP_FAULTS"); spec != "" {
		if err := Configure(spec); err != nil {
			fmt.Fprintf(os.Stderr, "faultinject: ignoring PP_FAULTS: %v\n", err)
		}
	}
}

// Configure replaces the active schedule. The empty string disables every
// failpoint. Unknown failpoint names and malformed clauses are rejected as
// a whole — a typo must not silently disarm a crash drill.
func Configure(spec string) error {
	next := make(map[string]*point)
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, sched, ok := strings.Cut(clause, "=")
		if !ok {
			return fmt.Errorf("faultinject: clause %q is not name=schedule", clause)
		}
		name = strings.TrimSpace(name)
		if !known(name) {
			return fmt.Errorf("faultinject: unknown failpoint %q (catalog: %s)", name, strings.Join(Catalog, ", "))
		}
		pt, err := parseSchedule(strings.TrimSpace(sched))
		if err != nil {
			return fmt.Errorf("faultinject: failpoint %q: %w", name, err)
		}
		next[name] = pt
	}
	mu.Lock()
	points = next
	mu.Unlock()
	enabled.Store(len(next) > 0)
	return nil
}

// Disable turns every failpoint off (tests' deferred cleanup).
func Disable() { _ = Configure("") }

// Enabled reports whether any failpoint is armed.
func Enabled() bool { return enabled.Load() }

func known(name string) bool {
	for _, n := range Catalog {
		if n == name {
			return true
		}
	}
	return false
}

// parseSchedule parses "at:N", "after:N", "every:N" or "prob:P[:SEED]".
func parseSchedule(s string) (*point, error) {
	kind, rest, _ := strings.Cut(s, ":")
	switch kind {
	case "at", "after", "every":
		n, err := strconv.ParseUint(rest, 10, 64)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("schedule %q needs a positive count", s)
		}
		m := map[string]mode{"at": modeAt, "after": modeAfter, "every": modeEvery}[kind]
		return &point{mode: m, n: n}, nil
	case "prob":
		pStr, seedStr, hasSeed := strings.Cut(rest, ":")
		p, err := strconv.ParseFloat(pStr, 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("schedule %q needs a probability in [0, 1]", s)
		}
		var seed uint64 = 1
		if hasSeed {
			if seed, err = strconv.ParseUint(seedStr, 10, 64); err != nil {
				return nil, fmt.Errorf("schedule %q: bad seed", s)
			}
		}
		return &point{mode: modeProb, p: p, rng: seed}, nil
	default:
		return nil, fmt.Errorf("schedule %q is not at:N, after:N, every:N or prob:P[:SEED]", s)
	}
}

// Hit consults the schedule of a failpoint. It returns nil when the
// failpoint is unarmed or the schedule does not fire on this call, and an
// ErrInjected-wrapping error when it does. The call counter advances on
// every armed call, firing or not, so schedules are positional.
func Hit(name string) error {
	if !enabled.Load() {
		return nil
	}
	mu.Lock()
	pt := points[name]
	mu.Unlock()
	if pt == nil {
		return nil
	}
	call := pt.calls.Add(1)
	fire := false
	switch pt.mode {
	case modeAt:
		fire = call == pt.n
	case modeAfter:
		fire = call > pt.n
	case modeEvery:
		fire = call%pt.n == 0
	case modeProb:
		pt.mu.Lock()
		// SplitMix64: deterministic per-point stream.
		pt.rng += 0x9e3779b97f4a7c15
		z := pt.rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		pt.mu.Unlock()
		fire = float64(z>>11)/(1<<53) < pt.p
	}
	if !fire {
		return nil
	}
	pt.fired.Add(1)
	return fmt.Errorf("%w: %s (call %d)", ErrInjected, name, call)
}

// Counts reports how many times a failpoint was consulted and how many
// times it fired since the last Configure.
func Counts(name string) (calls, fired uint64) {
	mu.Lock()
	pt := points[name]
	mu.Unlock()
	if pt == nil {
		return 0, 0
	}
	return pt.calls.Load(), pt.fired.Load()
}
