package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/protocols"
)

// gate is a registry constructor for "gate:<n>" (flock of birds at n) that
// holds every resolution until need of them are in flight at once. Each
// sweep cell resolves its protocol at the start of its engine request, so
// a cell waiting at the gate is a cell in flight.
type gate struct {
	need int
	mu   sync.Mutex
	in   int // resolutions currently waiting or passing
	peak int
	open chan struct{}
	// opened: the gate opens once, the first time need are in flight.
	opened bool
}

func newGate(need int) *gate { return &gate{need: need, open: make(chan struct{})} }

func (g *gate) resolve(args []string) (protocols.Entry, error) {
	n, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return protocols.Entry{}, err
	}
	g.mu.Lock()
	g.in++
	g.peak = max(g.peak, g.in)
	if g.in == g.need && !g.opened {
		g.opened = true
		close(g.open)
	}
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.in--
		g.mu.Unlock()
	}()
	// The timeout only turns a schedule that never reaches need cells in
	// flight into one failed cell (the gate then opens for the rest)
	// instead of a hung test.
	select {
	case <-g.open:
		return protocols.FlockOfBirds(n), nil
	case <-time.After(30 * time.Second):
		g.mu.Lock()
		defer g.mu.Unlock()
		if !g.opened {
			g.opened = true
			close(g.open)
		}
		return protocols.Entry{}, fmt.Errorf("gate: fewer than %d cells in flight", g.need)
	}
}

// gatedRun runs one parametric template on an engine whose registry
// resolves it through g, and returns the canonical cell rows (grid order)
// and the canonical summary.
func gatedRun(t *testing.T, g *gate, workers int) ([]string, string) {
	t.Helper()
	reg := protocols.NewRegistry()
	if err := reg.Register("gate", g.resolve); err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Name:      "one-template",
		Protocols: []ProtocolAxis{{Spec: "gate:{N}"}},
		Params:    []ParamRange{{From: 3, To: 6}},
		Kinds:     []engine.Kind{engine.KindStable, engine.KindVerify, engine.KindSimulate},
		Sizes:     []Expr{Lit(7)},
		Predicate: &PredicateTemplate{Kind: "counting", Threshold: ParamExpr(0, 0)},
		Options:   Options{Seed: 3, ExactOracle: true},
	}
	res, err := Run(context.Background(), engine.NewWithRegistry(reg), spec, RunOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Completed != res.TotalCells {
		t.Fatalf("workers=%d: completed %d/%d, failed %d", workers, res.Completed, res.TotalCells, res.Failed)
	}
	rows := make([]string, len(res.Cells))
	for i, c := range res.Cells {
		b, err := json.Marshal(CanonicalCell(c))
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = string(b)
	}
	summary, err := json.Marshal(CanonicalResult(res))
	if err != nil {
		t.Fatal(err)
	}
	return rows, string(summary)
}

// TestRunSpreadsOneTemplateOverWorkers: Run hands out single cells, so a
// two-worker sweep of one parametric template has two of its cells in
// flight at once, and its canonical stream is byte-identical to the
// single-worker run.
func TestRunSpreadsOneTemplateOverWorkers(t *testing.T) {
	two := newGate(2)
	gotRows, gotSummary := gatedRun(t, two, 2)
	if two.peak != 2 {
		t.Fatalf("peak cells in flight = %d, want 2", two.peak)
	}

	one := newGate(1)
	wantRows, wantSummary := gatedRun(t, one, 1)
	if one.peak != 1 {
		t.Fatalf("single-worker run had %d cells in flight", one.peak)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("cells: %d with two workers, %d with one", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Errorf("cell %d differs:\n two workers: %s\n  one worker: %s", i, gotRows[i], wantRows[i])
		}
	}
	if gotSummary != wantSummary {
		t.Errorf("summary differs:\n two workers: %s\n  one worker: %s", gotSummary, wantSummary)
	}
}
