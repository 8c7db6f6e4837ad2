package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// --- spec parsing and expansion -------------------------------------------

func TestParseSpecMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":             `{`,
		"unknown field":        `{"protocolz": [{"spec":"flock:3"}], "kinds":["stable"]}`,
		"unknown kind":         `{"protocols":[{"spec":"flock:3"}],"kinds":["zzz"]}`,
		"no kinds":             `{"protocols":[{"spec":"flock:3"}]}`,
		"spec and inline":      `{"protocols":[{"spec":"flock:3","inline":{"name":"x"}}],"kinds":["stable"]}`,
		"neither spec/inline":  `{"protocols":[{"label":"x"}],"kinds":["stable"]}`,
		"bad expr":             `{"protocols":[{"spec":"flock:3"}],"kinds":["simulate"],"sizes":["{N"]}`,
		"bad expr op":          `{"protocols":[{"spec":"flock:{N}"}],"params":[3],"kinds":["simulate"],"sizes":["{N}/2"]}`,
		"param without axis":   `{"protocols":[{"spec":"flock:{N}"}],"kinds":["stable"]}`,
		"inverted range":       `{"protocols":[{"spec":"flock:{N}"}],"params":[{"from":9,"to":2}],"kinds":["stable"]}`,
		"range field typo":     `{"protocols":[{"spec":"flock:{N}"}],"params":[{"from":2,"to":64,"mull":2}],"kinds":["stable"]}`,
		"step and mul":         `{"protocols":[{"spec":"flock:{N}"}],"params":[{"from":2,"to":9,"step":1,"mul":2}],"kinds":["stable"]}`,
		"mul too small":        `{"protocols":[{"spec":"flock:{N}"}],"params":[{"from":2,"to":9,"mul":1}],"kinds":["stable"]}`,
		"sizes missing":        `{"protocols":[{"spec":"flock:3"}],"kinds":["simulate"]}`,
		"protocol-free verify": `{"kinds":["verify"],"params":[3]}`,
		"negative maxCells":    `{"protocols":[{"spec":"flock:3"}],"kinds":["stable"],"maxCells":-1}`,
		"maxCells over limit":  `{"protocols":[{"spec":"flock:3"}],"kinds":["stable"],"maxCells":2000000}`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ParseSpec([]byte(doc))
			if err == nil {
				t.Fatalf("spec accepted: %s", doc)
			}
			if !errors.Is(err, ErrBadSpec) || !errors.Is(err, engine.ErrBadRequest) {
				t.Errorf("error must wrap ErrBadSpec and engine.ErrBadRequest, got: %v", err)
			}
		})
	}
}

func TestExpandCapOverflow(t *testing.T) {
	spec := Spec{
		Protocols: []ProtocolAxis{{Spec: "flock:{N}"}},
		Params:    []ParamRange{{From: 1, To: 1000}},
		Kinds:     []engine.Kind{engine.KindSimulate},
		Sizes:     []Expr{Lit(4), Lit(8)},
		MaxCells:  100,
	}
	if _, err := spec.Expand(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("2000-cell grid with maxCells=100 must fail, got %v", err)
	}
	// The default cap also applies when maxCells is unset.
	spec.MaxCells = 0
	spec.Params = []ParamRange{{From: 1, To: DefaultMaxCells}}
	if _, err := spec.Expand(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("grid beyond the default cap must fail, got %v", err)
	}
}

func TestExpandGrid(t *testing.T) {
	spec := Spec{
		Protocols: []ProtocolAxis{{Spec: "flock:{N}"}},
		Params:    []ParamRange{{From: 3, To: 5}},
		Kinds:     []engine.Kind{engine.KindSimulate, engine.KindStable},
		Sizes:     []Expr{mustExpr(t, "{N}-1"), mustExpr(t, "{N}"), mustExpr(t, "{N}+1")},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Per param: 3 simulate cells + 1 stable cell (stable ignores sizes).
	if want := 3 * 4; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if c.Kind == engine.KindStable && c.Size != 0 {
			t.Errorf("stable cell carries size %d", c.Size)
		}
		if c.Kind == engine.KindSimulate && c.Request.Input == nil {
			t.Errorf("simulate cell %d has no input", i)
		}
		if c.Param == nil {
			t.Errorf("cell %d lost its param", i)
		}
	}
	// Spot-check substitution: first cell is flock:3 at size 2.
	if cells[0].Protocol != "flock:3" || cells[0].Size != 2 {
		t.Errorf("first cell: %+v", cells[0])
	}
}

func TestExpandGeometricParams(t *testing.T) {
	spec := Spec{
		Protocols: []ProtocolAxis{{Spec: "flock:{N}"}},
		Params:    []ParamRange{{From: 2, To: 32, Mul: 2}},
		Kinds:     []engine.Kind{engine.KindStable},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range cells {
		got = append(got, c.Protocol)
	}
	want := "flock:2 flock:4 flock:8 flock:16 flock:32"
	if strings.Join(got, " ") != want {
		t.Errorf("geometric expansion: %v, want %s", got, want)
	}
}

// TestExpandParamSkippedWhenUnused: an entry that consumes no parameter
// yields one cell, not one per param value.
func TestExpandParamSkippedWhenUnused(t *testing.T) {
	spec := Spec{
		Protocols: []ProtocolAxis{{Spec: "parity"}, {Spec: "flock:{N}"}},
		Params:    []ParamRange{{From: 3, To: 7}},
		Kinds:     []engine.Kind{engine.KindStable},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1+5 {
		t.Fatalf("got %d cells, want 6 (parity once, flock per param)", len(cells))
	}
	if cells[0].Param != nil {
		t.Errorf("unparametrised cell carries param %d", *cells[0].Param)
	}
}

// TestExpandSubMinimalSizesSkipped: parametric size bands may dip below 2
// agents near the axis edge; those points are skipped, not fatal.
func TestExpandSubMinimalSizesSkipped(t *testing.T) {
	spec := Spec{
		Protocols: []ProtocolAxis{{Spec: "flock:{N}"}},
		Params:    []ParamRange{{From: 2, To: 3}},
		Kinds:     []engine.Kind{engine.KindSimulate},
		Sizes:     []Expr{mustExpr(t, "{N}-1"), mustExpr(t, "{N}")},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// param 2: size 1 skipped, size 2 kept; param 3: sizes 2 and 3.
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	doc := `{
	  "name": "flock-threshold-scaling",
	  "protocols": [{"spec": "flock:{N}"}, {"spec": "majority", "inputs": [[5,2]], "kinds": ["simulate"]}],
	  "params": [2, {"from": 4, "to": 16, "mul": 2}],
	  "kinds": ["verify", "simulate"],
	  "sizes": ["{N}-1", "{N}", 8],
	  "predicate": {"kind": "counting", "threshold": "{N}"},
	  "options": {"runs": 3, "seed": 7, "timeoutMillis": 1000},
	  "maxCells": 200
	}`
	spec, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("re-parsing marshalled spec: %v\n%s", err, data)
	}
	data2, err := json.Marshal(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Errorf("spec JSON not stable under round trip:\n%s\n%s", data, data2)
	}
	cells1, _ := spec.Expand()
	cells2, _ := spec2.Expand()
	if len(cells1) == 0 || len(cells1) != len(cells2) {
		t.Errorf("round-tripped spec expands differently: %d vs %d cells", len(cells1), len(cells2))
	}
}

func mustExpr(t *testing.T, s string) Expr {
	t.Helper()
	e, err := ParseExpr(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// --- execution -------------------------------------------------------------

// TestRunFlockSweep runs a real multi-kind sweep and checks streaming,
// ordering, aggregation, and the artifact-cache reuse across cells.
func TestRunFlockSweep(t *testing.T) {
	spec := Spec{
		Name:      "flock-test",
		Protocols: []ProtocolAxis{{Spec: "flock:{N}"}},
		Params:    []ParamRange{{From: 3, To: 5}},
		Kinds:     []engine.Kind{engine.KindVerify, engine.KindSimulate, engine.KindStable},
		Sizes:     []Expr{mustExpr(t, "{N}+1")},
		Predicate: &PredicateTemplate{Kind: "counting", Threshold: ParamExpr(0, 0)},
		Options:   Options{Seed: 11, ExactOracle: true},
	}
	eng := engine.New()
	var streamed []int
	res, err := Run(context.Background(), eng, spec, RunOptions{
		Workers: 4,
		OnCell:  func(cr CellResult) { streamed = append(streamed, cr.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCells != 9 || res.Completed != 9 || res.Failed != 0 {
		t.Fatalf("bad counts: %+v", res)
	}
	if len(streamed) != 9 {
		t.Fatalf("streamed %d cells, want 9", len(streamed))
	}
	for i, cr := range res.Cells {
		if cr.Index != i {
			t.Fatalf("result cells not in grid order: %v", res.Cells)
		}
	}
	if res.Verification == nil || res.Verification.AllOK != 3 {
		t.Errorf("verify aggregate: %+v", res.Verification)
	}
	if res.Simulation == nil || res.Simulation.Converged != 3 || res.Simulation.ParallelMax <= 0 {
		t.Errorf("simulate aggregate: %+v", res.Simulation)
	}
	if got := len(res.ByKind); got != 3 {
		t.Errorf("byKind has %d kinds, want 3", got)
	}
	// The simulate (exact oracle) and stable cells of one protocol share
	// the stable-set artifact: exactly one computation per protocol.
	if n := eng.Computations(); n != 3 {
		t.Errorf("artifact computations: %d, want 3 (one per flock protocol)", n)
	}
	// Simulate cells above threshold must converge to 1.
	for _, cr := range res.Cells {
		if cr.Kind == engine.KindSimulate && (cr.Result.Simulation == nil || cr.Result.Simulation.Output != 1) {
			t.Errorf("cell %d: flock at η+1 should stabilise to 1: %+v", cr.Index, cr.Result.Simulation)
		}
	}
}

// TestRunMultiRunSimulateAggregates pins the E1/E2-style convergence-cell
// path: multi-run simulate cells execute on the replica executor (via the
// engine), their estimates carry the executor's per-run means and totals,
// and those means feed both percentile sources of the sweep aggregate —
// before the executor, estimate-only sweeps left the interactions
// percentiles empty.
func TestRunMultiRunSimulateAggregates(t *testing.T) {
	spec := Spec{
		Name:      "multirun",
		Protocols: []ProtocolAxis{{Spec: "flock:3"}},
		Kinds:     []engine.Kind{engine.KindSimulate},
		Sizes:     []Expr{Lit(8), Lit(10)},
		Options:   Options{Seed: 5, Runs: 4},
	}
	res, err := Run(context.Background(), engine.New(), spec, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 || res.Failed != 0 {
		t.Fatalf("bad counts: %+v", res)
	}
	s := res.Simulation
	if s == nil || s.Cells != 2 || s.Converged != 2 {
		t.Fatalf("simulate aggregate: %+v", s)
	}
	if s.InteractionsP50 <= 0 || s.InteractionsMax < s.InteractionsP50 {
		t.Fatalf("multi-run cells must feed the interactions percentiles: %+v", s)
	}
	if s.ParallelP50 <= 0 || s.ParallelMax < s.ParallelP50 {
		t.Fatalf("multi-run cells must feed the parallel percentiles: %+v", s)
	}
	for _, cr := range res.Cells {
		est := cr.Result.Simulation.Estimate
		if est == nil || est.Runs != 4 || est.Converged != 4 {
			t.Fatalf("cell %d: estimate %+v, want 4/4 converged", cr.Index, est)
		}
		if est.TotalInteractions <= 0 || est.MeanInteractions <= 0 {
			t.Fatalf("cell %d: executor fields missing: %+v", cr.Index, est)
		}
	}
}

// TestRunRecordsCellErrors: a cell whose request is invalid fails that cell
// only; the sweep completes and reports the error.
func TestRunRecordsCellErrors(t *testing.T) {
	spec := Spec{
		Protocols: []ProtocolAxis{{Spec: "flock:3"}, {Spec: "nosuchproto:1"}},
		Kinds:     []engine.Kind{engine.KindStable},
	}
	res, err := Run(context.Background(), engine.New(), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 || res.Failed != 1 {
		t.Fatalf("bad counts: %+v", res)
	}
	var failed *CellResult
	for i := range res.Cells {
		if !res.Cells[i].OK {
			failed = &res.Cells[i]
		}
	}
	if failed == nil || failed.Error == "" || failed.Protocol != "nosuchproto:1" {
		t.Errorf("failed cell not reported: %+v", failed)
	}
}

// spinnerProtocol has two states that keep toggling: never silent, outputs
// disagree, so the silence oracle never classifies and a simulation burns
// its whole step budget.
var spinnerProtocol = json.RawMessage(`{
  "name": "never-converges",
  "states": [{"name": "a", "output": 0}, {"name": "b", "output": 1}],
  "transitions": [["a","a","b","b"], ["b","b","a","a"]],
  "inputs": {"x": "a"},
  "completeWithIdentity": true
}`)

// TestRunCancellation: cancelling the sweep context interrupts in-flight
// cells and skips the rest. The cells run a protocol that never converges
// with a huge step budget, so an uncancelled sweep would take minutes —
// returning promptly proves cooperative cancellation end to end.
func TestRunCancellation(t *testing.T) {
	spec := Spec{
		Protocols: []ProtocolAxis{{Inline: spinnerProtocol, Label: "spinner"}},
		Kinds:     []engine.Kind{engine.KindSimulate},
		Sizes:     []Expr{Lit(100)},
		Options:   Options{MaxSteps: 2_000_000_000},
	}
	// 16 identical heavy cells.
	for i := 0; i < 4; i++ {
		spec.Protocols = append(spec.Protocols, spec.Protocols[0])
	}
	spec.Sizes = append(spec.Sizes, Lit(102), Lit(104))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Run(ctx, engine.New(), spec, RunOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %s — in-flight cells were not interrupted", elapsed)
	}
	if !res.Cancelled {
		t.Error("result must be marked cancelled")
	}
	if res.Completed >= res.TotalCells {
		t.Errorf("all %d cells completed despite cancellation", res.TotalCells)
	}
}

// TestRunDropsInterruptedCell: a cell interrupted mid-run by the sweep's
// own cancellation has no outcome, so it is neither emitted nor counted as
// a failure (a journaled sweep would otherwise record the interruption as
// final and replay it on resume). The cancel fires only once the
// never-converging second cell holds the engine's execution slot, so that
// cell is deterministically in flight.
func TestRunDropsInterruptedCell(t *testing.T) {
	spec := Spec{
		Protocols: []ProtocolAxis{{Spec: "flock:3"}, {Inline: spinnerProtocol, Label: "spinner"}},
		Kinds:     []engine.Kind{engine.KindSimulate},
		Sizes:     []Expr{Lit(10)},
		Options:   Options{MaxSteps: 2_000_000_000},
	}
	eng := engine.New()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	firstDone := make(chan struct{})
	go func() {
		<-firstDone
		for {
			if busy, _, _ := eng.SlotStats(); busy > 0 {
				cancel()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var seen []CellResult
	res, err := Run(ctx, eng, spec, RunOptions{Workers: 1, OnCell: func(cr CellResult) {
		seen = append(seen, cr)
		if len(seen) == 1 {
			close(firstDone)
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(seen) != 1 || seen[0].Index != 0 || !seen[0].OK {
		t.Fatalf("emitted %+v, want only the completed cell 0", seen)
	}
	if !res.Cancelled || res.Completed != 1 || res.Failed != 0 {
		t.Fatalf("result cancelled=%v completed=%d failed=%d, want true/1/0", res.Cancelled, res.Completed, res.Failed)
	}
}
