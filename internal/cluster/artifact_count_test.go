package cluster_test

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics/testutil"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/sweep"
)

// storeNode is one cluster node wired like `ppserve -worker -artifact-dir`:
// an engine over its own disk store.
type storeNode struct {
	id  string
	eng *engine.Engine
	st  *store.Store
}

func startStoreWorker(t *testing.T, coord *cluster.Coordinator, coordURL, id string) storeNode {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	eng.SetArtifactStore(st)
	startEngineWorker(t, coord, id, eng, nil)
	return storeNode{id: id, eng: eng, st: st}
}

// nodeCounts is one node's artifact work: engine computations and
// successful store writes (pp_store_writes_total{result="ok"}).
func (n storeNode) counts() (computes, writes uint64) {
	return n.eng.Computations(), uint64(testutil.ToFloat64(n.st.Metrics().Writes.WithLabelValues("ok")))
}

// TestClusterComputesEachHashOnce counts cluster artifact work instead of
// timing it. Three store-backed workers sweep a grid of stable and
// exact-oracle simulate cells: summed over the nodes, every distinct
// protocol content hash is computed and written exactly once. A fourth
// worker then joins and the sweep reruns: exactly the hashes rendezvous
// routing moves to it recompute, once each, and nothing else does. Both
// runs stream the single-process run's canonical bytes.
func TestClusterComputesEachHashOnce(t *testing.T) {
	spec := sweep.Spec{
		Name:      "artifact-counts",
		Protocols: []sweep.ProtocolAxis{{Spec: "flock:{N}"}},
		Params:    []sweep.ParamRange{{From: 4, To: 16}},
		Kinds:     []engine.Kind{engine.KindStable, engine.KindSimulate},
		Sizes:     []sweep.Expr{sweep.Lit(9)},
		Options:   sweep.Options{Seed: 3, ExactOracle: true},
	}
	wantCells, wantSummary := singleProcessReference(t, spec)

	// The distinct content hashes of the grid, the way the dispatcher keys
	// its routing.
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	resolve := cluster.EngineResolver(engine.New())
	seen := map[string]bool{}
	var hashes []string
	for _, c := range cells {
		h, err := resolve(c.Request.Protocol)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[h] {
			seen[h] = true
			hashes = append(hashes, h)
		}
	}

	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	coordEng := engine.New()
	coordSrv := httptest.NewServer(serve.NewHandler(coordEng, serve.Options{Cluster: coord}))
	t.Cleanup(coordSrv.Close)
	var nodes []storeNode
	for _, id := range []string{"w1", "w2", "w3"} {
		nodes = append(nodes, startStoreWorker(t, coord, coordSrv.URL, id))
	}
	total := func() (computes, writes uint64) {
		computes = coordEng.Computations()
		for _, n := range nodes {
			c, w := n.counts()
			computes += c
			writes += w
		}
		return computes, writes
	}
	opts := cluster.DispatchOptions{LocalEngine: coordEng, RangeCells: 2}

	gotCells, gotSummary := dispatchCanonical(t, coord, spec, opts)
	assertEqualRuns(t, wantCells, wantSummary, gotCells, gotSummary)
	if c, w := total(); c != uint64(len(hashes)) || w != uint64(len(hashes)) {
		t.Fatalf("cold sweep: %d computations and %d store writes over the nodes, want %d each (one per content hash)",
			c, w, len(hashes))
	}

	before := coord.Live()
	joined := startStoreWorker(t, coord, coordSrv.URL, "w4")
	after := coord.Live()
	var moved []string
	for _, h := range hashes {
		from, _ := cluster.Route(h, before)
		to, _ := cluster.Route(h, after)
		if from.ID != to.ID {
			if to.ID != joined.id {
				t.Fatalf("hash %s moved %s → %s on a join of %s", h[:12], from.ID, to.ID, joined.id)
			}
			moved = append(moved, h)
		}
	}
	t.Logf("%d content hashes, %d moved to %s", len(hashes), len(moved), joined.id)
	if len(moved) == 0 {
		t.Fatal("the join moved no hash; the grid no longer exercises a move")
	}
	computesBefore, writesBefore := make([]uint64, len(nodes)), make([]uint64, len(nodes))
	for i, n := range nodes {
		computesBefore[i], writesBefore[i] = n.counts()
	}
	coordBefore := coordEng.Computations()

	gotCells, gotSummary = dispatchCanonical(t, coord, spec, opts)
	assertEqualRuns(t, wantCells, wantSummary, gotCells, gotSummary)
	for i, n := range nodes {
		if c, w := n.counts(); c != computesBefore[i] || w != writesBefore[i] {
			t.Errorf("%s after the join: %d computations, %d writes; want %d, %d (its hashes stay put)",
				n.id, c, w, computesBefore[i], writesBefore[i])
		}
	}
	if c := coordEng.Computations(); c != coordBefore {
		t.Errorf("coordinator computed %d artifacts after the join, want %d", c, coordBefore)
	}
	if c, w := joined.counts(); c != uint64(len(moved)) || w != uint64(len(moved)) {
		t.Errorf("%s: %d computations and %d writes, want %d each (one per moved hash)",
			joined.id, c, w, len(moved))
	}
	for _, h := range moved {
		if _, err := os.Stat(filepath.Join(joined.st.Dir(), engine.ArtifactStable, h)); err != nil {
			t.Errorf("moved hash %s not on %s's disk: %v", h[:12], joined.id, err)
		}
	}
}
