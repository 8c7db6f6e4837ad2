package sweep

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/engine"
)

// cellsTestSpec is a 12-cell grid (3 params × 2 kinds × 2 sizes) used by the
// selection tests.
func cellsTestSpec() Spec {
	return Spec{
		Name:      "cells-test",
		Protocols: []ProtocolAxis{{Spec: "flock:{N}"}},
		Params:    []ParamRange{{From: 3, To: 5}},
		Kinds:     []engine.Kind{engine.KindSimulate, engine.KindVerify},
		Sizes:     []Expr{Lit(6), Lit(7)},
		Predicate: &PredicateTemplate{Kind: "counting", Threshold: ParamExpr(0, 0)},
		Options:   Options{Seed: 11, ExactOracle: true},
	}
}

// TestExpandPresized: Expand holds the grid, and a selection of it, in a
// slice of exactly its size.
func TestExpandPresized(t *testing.T) {
	spec := cellsTestSpec()
	for _, sel := range [][]IndexRange{nil, {{From: 2, To: 4}, {From: 9, To: 9}}} {
		spec.Cells = sel
		cells, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if cap(cells) != len(cells) {
			t.Errorf("selection %v: %d cells in a slice of capacity %d", sel, len(cells), cap(cells))
		}
	}
}

func TestCellsSelectionFiltersWithoutRenumbering(t *testing.T) {
	full, err := cellsTestSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 12 {
		t.Fatalf("grid has %d cells, want 12", len(full))
	}

	spec := cellsTestSpec()
	spec.Cells = []IndexRange{{From: 2, To: 4}, {From: 9, To: 9}}
	sel, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 3, 4, 9}
	if len(sel) != len(want) {
		t.Fatalf("selected %d cells, want %d", len(sel), len(want))
	}
	for i, c := range sel {
		if c.Index != want[i] {
			t.Errorf("cell %d: index %d, want %d", i, c.Index, want[i])
		}
		// The selected cell must be exactly the full grid's cell: same
		// coordinates, same request, same derived seed.
		if !reflect.DeepEqual(c, full[c.Index]) {
			t.Errorf("cell %d differs from its full-grid counterpart:\n sel: %+v\nfull: %+v",
				c.Index, c, full[c.Index])
		}
	}
}

func TestCellsSplitCoversGrid(t *testing.T) {
	full, err := cellsTestSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Split into three disjoint slices; their union must equal the grid.
	splits := [][]IndexRange{
		{{From: 0, To: 3}},
		{{From: 4, To: 4}, {From: 5, To: 7}},
		{{From: 8, To: 11}},
	}
	var merged []Cell
	for _, sel := range splits {
		spec := cellsTestSpec()
		spec.Cells = sel
		part, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, part...)
	}
	if !reflect.DeepEqual(merged, full) {
		t.Fatalf("split ∪ merge != full grid:\n got %d cells\nwant %d cells", len(merged), len(full))
	}
}

func TestCellsSelectionValidation(t *testing.T) {
	for name, sel := range map[string][]IndexRange{
		"negative":      {{From: -1, To: 2}},
		"inverted":      {{From: 5, To: 3}},
		"past-the-grid": {{From: 0, To: 99}},
	} {
		spec := cellsTestSpec()
		spec.Cells = sel
		if _, err := spec.Expand(); err == nil {
			t.Errorf("%s selection should fail", name)
		}
	}
}

func TestCellsSelectionJSONRoundTrip(t *testing.T) {
	spec := cellsTestSpec()
	spec.Cells = []IndexRange{{From: 1, To: 3}, {From: 8, To: 8}}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed.Cells, spec.Cells) {
		t.Fatalf("cells did not round-trip: %+v", parsed.Cells)
	}
}

func TestRanges(t *testing.T) {
	for _, tc := range []struct {
		in   []int
		want []IndexRange
	}{
		{nil, nil},
		{[]int{3}, []IndexRange{{3, 3}}},
		{[]int{5, 3, 4}, []IndexRange{{3, 5}}},
		{[]int{0, 2, 3, 7, 7, 8}, []IndexRange{{0, 0}, {2, 3}, {7, 8}}},
	} {
		if got := Ranges(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Ranges(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestRunSplitEqualsUnsplit executes a sweep whole and as two cells-selected
// halves; the canonical cells and merged canonical summary must be equal —
// the property the cluster dispatcher's determinism rests on.
func TestRunSplitEqualsUnsplit(t *testing.T) {
	eng := engine.New()
	whole, err := Run(context.Background(), eng, cellsTestSpec(), RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	col := NewCollector("cells-test", whole.TotalCells, 2, false)
	for _, sel := range [][]IndexRange{{{From: 0, To: 5}}, {{From: 6, To: 11}}} {
		spec := cellsTestSpec()
		spec.Cells = sel
		part, err := Run(context.Background(), engine.New(), spec, RunOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, cr := range part.Cells {
			col.Add(cr)
		}
	}
	merged := col.Finish(0)

	wj, err := json.Marshal(CanonicalResult(whole))
	if err != nil {
		t.Fatal(err)
	}
	mj, err := json.Marshal(CanonicalResult(merged))
	if err != nil {
		t.Fatal(err)
	}
	if string(wj) != string(mj) {
		t.Fatalf("canonical summaries differ:\nwhole:  %s\nmerged: %s", wj, mj)
	}

	if len(whole.Cells) != len(merged.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(whole.Cells), len(merged.Cells))
	}
	for i := range whole.Cells {
		a, _ := json.Marshal(CanonicalCell(whole.Cells[i]))
		b, _ := json.Marshal(CanonicalCell(merged.Cells[i]))
		if string(a) != string(b) {
			t.Errorf("cell %d differs:\nwhole: %s\nsplit: %s", i, a, b)
		}
	}
}

func TestCanonicalCellZeroesVolatileFields(t *testing.T) {
	cr := CellResult{
		Index:         3,
		Kind:          engine.KindSimulate,
		OK:            true,
		ElapsedMillis: 12.5,
		CacheHit:      true,
		Result:        &engine.Result{Kind: engine.KindSimulate, ElapsedMillis: 9.9, CacheHit: true},
	}
	c := CanonicalCell(cr)
	if c.ElapsedMillis != 0 || c.CacheHit || c.Result.ElapsedMillis != 0 || c.Result.CacheHit {
		t.Errorf("volatile fields survived: %+v", c)
	}
	// The original is untouched (CanonicalCell copies).
	if cr.ElapsedMillis != 12.5 || !cr.Result.CacheHit {
		t.Errorf("original mutated: %+v", cr)
	}
}
