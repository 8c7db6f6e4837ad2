package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/sweep"
)

// sweepMode is one /v1/sweep execution route.
type sweepMode struct {
	name    string
	workers int  // registered cluster workers; -1 = not a coordinator
	journal bool // run under a fresh durable journal
}

// modeOptions builds the handler options of one mode: the given sweep pool
// size, a coordinator with m.workers live in-process workers when m.workers
// >= 0, and a fresh journal when m.journal.
func modeOptions(t *testing.T, m sweepMode, sweepWorkers int) Options {
	t.Helper()
	opts := Options{SweepWorkers: sweepWorkers}
	if m.journal {
		js, err := journal.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opts.Journal = js
	}
	if m.workers >= 0 {
		coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
		for i := 0; i < m.workers; i++ {
			w := httptest.NewServer(NewHandler(engine.New(), Options{}))
			t.Cleanup(w.Close)
			coord.Register(fmt.Sprintf("w%d", i), w.URL)
		}
		opts.Cluster = coord
		opts.ClusterDispatch = cluster.DispatchOptions{RangeCells: 2}
	}
	return opts
}

// streamFacts reads a raw sweep stream into its cell indices, in stream
// order, and the summary row's worker count.
func streamFacts(t *testing.T, body []byte) (indices []int, workers int) {
	t.Helper()
	sum, err := sweep.ReadRows(bytes.NewReader(body), func(cr sweep.CellResult) {
		indices = append(indices, cr.Index)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != nil {
		workers = sum.Workers
	}
	return indices, workers
}

// badRefSpec mixes protocol references that resolve with two that do not
// (an unknown registry family and an inline body with no states): every
// route must record one failed cell per unresolvable cell, not fail the
// sweep.
const badRefSpec = `{
  "name": "badref",
  "protocols": [
    {"spec": "flock:{N}"},
    {"spec": "nosuch:{N}"},
    {"inline": {"name": "empty", "states": [], "inputs": {"x": "q"}}, "label": "empty"}
  ],
  "params": [{"from": 3, "to": 4}],
  "kinds": ["simulate"],
  "sizes": ["{N}+1"],
  "options": {"seed": 7}
}`

// TestSweepModesAgree runs each spec down every execution route of
// /v1/sweep, each with two sweep workers: local, local under a journal, a
// coordinator with no workers, a coordinator with two workers, and that
// coordinator under a journal. Every route must stream strictly increasing
// cell indices and produce byte-identical canonical NDJSON.
func TestSweepModesAgree(t *testing.T) {
	modes := []sweepMode{
		{name: "local", workers: -1},
		{name: "local+journal", workers: -1, journal: true},
		{name: "coordinator/0", workers: 0},
		{name: "coordinator/2", workers: 2},
		{name: "coordinator/2+journal", workers: 2, journal: true},
	}
	for _, tc := range []struct {
		name, spec   string
		cells, fails int
	}{
		{"crash", crashSpec, 12, 0},
		{"badref", badRefSpec, 6, 4},
	} {
		var want string
		for _, m := range modes {
			body := sweepBody(t, NewHandler(engine.New(), modeOptions(t, m, 2)), tc.spec)
			indices, _ := streamFacts(t, body)
			if len(indices) != tc.cells {
				t.Fatalf("%s/%s: streamed %d cells, want %d", tc.name, m.name, len(indices), tc.cells)
			}
			for i := 1; i < len(indices); i++ {
				if indices[i] <= indices[i-1] {
					t.Fatalf("%s/%s: cell %d streamed after cell %d", tc.name, m.name, indices[i], indices[i-1])
				}
			}
			got := canonicalNDJSON(t, body)
			if fails := strings.Count(got, `"error":`); fails != tc.fails {
				t.Errorf("%s/%s: %d failed cells, want %d:\n%s", tc.name, m.name, fails, tc.fails, got)
			}
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("%s/%s: canonical stream differs from %s:\n--- want ---\n%s--- got ---\n%s",
					tc.name, m.name, modes[0].name, want, got)
			}
		}
	}
}

// TestJournaledSweepReportsExecutorWidth: summary.workers is the width the
// executor actually ran with, so a journal does not change it — a 1-cell
// local sweep reports one worker, and a coordinator sweep its two live
// workers, whatever the sweep pool size.
func TestJournaledSweepReportsExecutorWidth(t *testing.T) {
	oneCell := `{"name": "one", "kinds": ["bounds"], "params": [3]}`
	for _, tc := range []struct {
		spec    string
		workers int
		want    int
	}{
		{oneCell, -1, 1},
		{crashSpec, 2, 2},
	} {
		for _, journaled := range []bool{false, true} {
			m := sweepMode{workers: tc.workers, journal: journaled}
			body := sweepBody(t, NewHandler(engine.New(), modeOptions(t, m, 4)), tc.spec)
			if _, got := streamFacts(t, body); got != tc.want {
				t.Errorf("cluster workers %d, journaled %v: summary.workers = %d, want %d",
					tc.workers, journaled, got, tc.want)
			}
		}
	}
}
