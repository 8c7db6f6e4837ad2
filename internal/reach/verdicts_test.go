package reach

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/multiset"
	"repro/internal/pred"
	"repro/internal/protocols"
)

// tableSize returns the number of verdicts a table holds.
func tableSize(t *Verdicts) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// TestVerdictsMatchFresh: ranges over one protocol that share a verdict
// table — overlapping, and against two predicates — report exactly what
// the fresh-graph oracle reports, and Reused counts the inputs an earlier
// range explored.
func TestVerdictsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 20; trial++ {
		inputs := 1 + trial%2
		p := randomProtocolInputs(rng, inputs)
		phis := []pred.Pred{pred.NewCounting(2), pred.NewCounting(4)}
		if inputs == 2 {
			phis = []pred.Pred{pred.NewMajority(), pred.NewMajority()}
		}
		var table Verdicts
		seen := map[string]bool{}
		for i, r := range [][2]int64{{2, 5}, {4, 7}, {2, 6}} {
			phi := phis[i%2]
			want := freshReport(t, p, phi, r[0], r[1])
			rep, err := VerifyRangeInterruptible(p, phi, r[0], r[1], 0, nil, &table)
			if err != nil {
				t.Fatalf("trial %d range %v: %v", trial, r, err)
			}
			label := fmt.Sprintf("trial %d range %v", trial, r)
			compareReports(t, label, rep, want)
			reused := 0
			for _, res := range want.Results {
				if seen[res.Input.Key()] {
					reused++
				}
				seen[res.Input.Key()] = true
			}
			if rep.Reused != reused {
				t.Fatalf("%s: reused %d inputs, want %d", label, rep.Reused, reused)
			}
		}
		if tableSize(&table) != len(seen) {
			t.Fatalf("trial %d: table holds %d verdicts, want %d", trial, tableSize(&table), len(seen))
		}
	}
}

// TestVerdictsNotRecordedOnFailure: neither an interrupted range nor one
// that hits the limit records a verdict for the input it failed on.
func TestVerdictsNotRecordedOnFailure(t *testing.T) {
	flock := protocols.FlockOfBirds(6)
	var table Verdicts
	stop := make(chan struct{})
	close(stop)
	if _, err := VerifyRangeInterruptible(flock.Protocol, flock.Pred, 2, 8, 0, stop, &table); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("closed stop channel: want ErrInterrupted, got %v", err)
	}
	if tableSize(&table) != 0 {
		t.Fatalf("an interrupted range recorded %d verdicts", tableSize(&table))
	}
	rep, err := VerifyRangeInterruptible(flock.Protocol, flock.Pred, 2, 30, 50, nil, &table)
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("limit 50: want ErrLimitExceeded, got %v", err)
	}
	if len(rep.Results) == 0 || tableSize(&table) != len(rep.Results) {
		t.Fatalf("table holds %d verdicts, want the %d inputs that completed", tableSize(&table), len(rep.Results))
	}
}

// TestVerdictsBounded: the table stops recording at maxVerdicts and still
// serves what it holds.
func TestVerdictsBounded(t *testing.T) {
	var table Verdicts
	for i := 0; i < maxVerdicts+10; i++ {
		table.record(multiset.Vec{int64(i)}, verdict{got: i % 2, configs: i})
	}
	if tableSize(&table) != maxVerdicts {
		t.Fatalf("table holds %d verdicts, want %d", tableSize(&table), maxVerdicts)
	}
	if vd, ok := table.lookup(multiset.Vec{7}, 7); !ok || vd != (verdict{got: 1, configs: 7}) {
		t.Fatalf("lookup of a recorded input: %+v, %t", vd, ok)
	}
	if _, ok := table.lookup(multiset.Vec{7}, 6); ok {
		t.Fatal("a verdict whose graph exceeds the limit must not be served")
	}
	if _, ok := table.lookup(multiset.Vec{maxVerdicts + 5}, 1<<30); ok {
		t.Fatal("an input recorded past the bound must not be served")
	}
}
