// Package sweep is the scenario-sweep subsystem of the analysis engine: a
// declarative, JSON-round-trippable Spec describes a cartesian grid of
// analysis cells — protocol templates × predicate parameters × population
// sizes × analysis kinds — and a sharded worker pool executes the expanded
// grid against one engine, streaming a CellResult per completed cell and
// aggregating the whole run into a typed Result.
//
// The paper's experiments are inherently parametric (flock-of-birds
// thresholds x ≥ c, remainder and threshold predicates swept over constants
// and population sizes), and the follow-up work studies exactly how these
// quantities scale with the parameter. A sweep turns that workload class
// into one request:
//
//	{
//	  "name":      "flock-threshold-scaling",
//	  "protocols": [{"spec": "flock:{N}"}],
//	  "params":    [{"from": 2, "to": 9}],
//	  "kinds":     ["verify", "simulate"],
//	  "sizes":     ["{N}-1", "{N}", "{N}+1"],
//	  "options":   {"runs": 5, "seed": 7},
//	  "maxCells":  200
//	}
//
// The placeholder {N} ranges over the params axis; it substitutes textually
// into protocol spec strings and arithmetically (with an optional +c, -c or
// *c suffix) into sizes and predicate fields. Expansion is capped twice: by
// the spec's own maxCells (default DefaultMaxCells) and by the package-wide
// AbsoluteMaxCells, so a malformed grid errors out instead of allocating
// without bound.
//
// Execution reuses the engine's machinery end to end: cells share its
// content-hash artifact cache (a sweep over analysis kinds of one protocol
// computes each artifact once), its execution-slot semaphore, and its
// cooperative cancellation — cancelling the sweep context stops in-flight
// cells and skips the rest.
package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
)

// DefaultMaxCells caps expansion when the spec does not set maxCells.
const DefaultMaxCells = 4096

// AbsoluteMaxCells is the package-wide ceiling on a single sweep's grid,
// whatever the spec asks for.
const AbsoluteMaxCells = 1_000_000

// ErrBadSpec wraps every sweep-spec validation failure. It wraps
// engine.ErrBadRequest, so transports classify bad sweeps as client errors
// (HTTP 400) without special cases.
var ErrBadSpec = fmt.Errorf("sweep: bad spec: %w", engine.ErrBadRequest)

// badSpec builds an ErrBadSpec-wrapped error.
func badSpec(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
}

// Param is the placeholder token substituted by each value of the params
// axis in protocol spec strings and Expr fields.
const Param = "{N}"

// Expr is an integer-valued spec field that may depend on the sweep
// parameter: a plain JSON number ("8"), or a string of the form "{N}",
// "{N}+c", "{N}-c" or "{N}*c". The zero Expr evaluates to 0 and uses no
// parameter.
type Expr struct {
	lit     int64
	param   bool
	op      byte // 0, '+', '-', '*'
	operand int64
}

// Lit returns a constant expression.
func Lit(v int64) Expr { return Expr{lit: v} }

// ParamExpr returns the expression {N} op operand (op 0 means plain {N}).
func ParamExpr(op byte, operand int64) Expr {
	return Expr{param: true, op: op, operand: operand}
}

// UsesParam reports whether evaluation reads the sweep parameter.
func (e Expr) UsesParam() bool { return e.param }

// IsZero reports whether the expression is the zero value (unset field).
func (e Expr) IsZero() bool { return e == Expr{} }

// Eval evaluates the expression at the given parameter value.
func (e Expr) Eval(param int64) int64 {
	if !e.param {
		return e.lit
	}
	switch e.op {
	case '+':
		return param + e.operand
	case '-':
		return param - e.operand
	case '*':
		return param * e.operand
	default:
		return param
	}
}

// String renders the expression in its spec syntax.
func (e Expr) String() string {
	if !e.param {
		return strconv.FormatInt(e.lit, 10)
	}
	if e.op == 0 {
		return Param
	}
	return fmt.Sprintf("%s%c%d", Param, e.op, e.operand)
}

// ParseExpr parses the spec syntax of an expression.
func ParseExpr(s string) (Expr, error) {
	t := strings.TrimSpace(s)
	if !strings.Contains(t, Param) {
		v, err := strconv.ParseInt(t, 10, 64)
		if err != nil {
			return Expr{}, badSpec("expression %q is neither an integer nor a %s form", s, Param)
		}
		return Lit(v), nil
	}
	if !strings.HasPrefix(t, Param) {
		return Expr{}, badSpec("expression %q must start with %s", s, Param)
	}
	rest := strings.TrimSpace(strings.TrimPrefix(t, Param))
	if rest == "" {
		return ParamExpr(0, 0), nil
	}
	op := rest[0]
	if op != '+' && op != '-' && op != '*' {
		return Expr{}, badSpec("expression %q: operator %q not in +, -, *", s, string(op))
	}
	operand, err := strconv.ParseInt(strings.TrimSpace(rest[1:]), 10, 64)
	if err != nil {
		return Expr{}, badSpec("expression %q: bad operand after %q", s, string(op))
	}
	return ParamExpr(op, operand), nil
}

// UnmarshalJSON accepts a JSON number or an expression string.
func (e *Expr) UnmarshalJSON(data []byte) error {
	data = bytes.TrimSpace(data)
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		parsed, err := ParseExpr(s)
		if err != nil {
			return err
		}
		*e = parsed
		return nil
	}
	var v int64
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("%w: bad expression %s", ErrBadSpec, data)
	}
	*e = Lit(v)
	return nil
}

// MarshalJSON renders constants as numbers and parametric expressions as
// strings, round-tripping losslessly.
func (e Expr) MarshalJSON() ([]byte, error) {
	if !e.param {
		return json.Marshal(e.lit)
	}
	return json.Marshal(e.String())
}

// ParamRange is one entry of the params axis: a single value (a bare JSON
// number) or an inclusive range — arithmetic ({"from":2,"to":10,"step":2})
// or geometric ({"from":2,"to":1024,"mul":2}).
type ParamRange struct {
	// From and To are the inclusive bounds.
	From int64 `json:"from"`
	To   int64 `json:"to"`
	// Step is the arithmetic increment (default 1). Exclusive with Mul.
	Step int64 `json:"step,omitempty"`
	// Mul is the geometric multiplier (≥ 2). Exclusive with Step.
	Mul int64 `json:"mul,omitempty"`

	single bool // unmarshalled from a bare number; marshals back to one
}

// UnmarshalJSON accepts a bare number or a range object. Unknown object
// fields are rejected here too — a custom unmarshaller does not inherit
// the outer decoder's DisallowUnknownFields, and a typo like "mull" would
// otherwise silently turn a geometric range into an arithmetic one.
func (r *ParamRange) UnmarshalJSON(data []byte) error {
	data = bytes.TrimSpace(data)
	if len(data) > 0 && data[0] != '{' {
		var v int64
		if err := json.Unmarshal(data, &v); err != nil {
			return fmt.Errorf("%w: bad param %s", ErrBadSpec, data)
		}
		*r = ParamRange{From: v, To: v, single: true}
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	type plain ParamRange
	var p plain
	if err := dec.Decode(&p); err != nil {
		return fmt.Errorf("%w: bad param range: %v", ErrBadSpec, err)
	}
	*r = ParamRange(p)
	return nil
}

// MarshalJSON renders single values as bare numbers.
func (r ParamRange) MarshalJSON() ([]byte, error) {
	if r.single && r.From == r.To && r.Step == 0 && r.Mul == 0 {
		return json.Marshal(r.From)
	}
	type plain ParamRange
	return json.Marshal(plain(r))
}

// values appends the expansion of the range.
func (r ParamRange) values(out []int64) ([]int64, error) {
	switch {
	case r.Step != 0 && r.Mul != 0:
		return nil, badSpec("param range sets both step and mul")
	case r.To < r.From:
		return nil, badSpec("param range to=%d < from=%d", r.To, r.From)
	case r.Mul != 0:
		if r.Mul < 2 {
			return nil, badSpec("param range needs mul ≥ 2, got %d", r.Mul)
		}
		if r.From < 1 {
			return nil, badSpec("geometric param range needs from ≥ 1, got %d", r.From)
		}
		for v := r.From; v <= r.To; {
			out = append(out, v)
			if len(out) > AbsoluteMaxCells {
				return nil, badSpec("param range expands past %d values", AbsoluteMaxCells)
			}
			if v > r.To/r.Mul {
				break // next multiplication would overflow past To
			}
			v *= r.Mul
		}
		return out, nil
	default:
		step := r.Step
		if step == 0 {
			step = 1
		}
		if step < 0 {
			return nil, badSpec("param range needs step ≥ 1, got %d", step)
		}
		for v := r.From; v <= r.To; v += step {
			out = append(out, v)
			if len(out) > AbsoluteMaxCells {
				return nil, badSpec("param range expands past %d values", AbsoluteMaxCells)
			}
		}
		return out, nil
	}
}

// PredicateTemplate is a predicate spec whose numeric fields may depend on
// the sweep parameter; building it at a parameter value yields the
// engine.PredicateSpec of a verify cell.
type PredicateTemplate struct {
	// Kind is "counting", "mod" or "majority" (engine.PredicateSpec.Kind).
	Kind string `json:"kind"`
	// Threshold, Modulus and Residue are the kind's numeric fields, each a
	// literal or a {N} expression.
	Threshold Expr `json:"threshold,omitzero"`
	Modulus   Expr `json:"modulus,omitzero"`
	Residue   Expr `json:"residue,omitzero"`
}

// UsesParam reports whether any field reads the sweep parameter.
func (t *PredicateTemplate) UsesParam() bool {
	return t != nil && (t.Threshold.UsesParam() || t.Modulus.UsesParam() || t.Residue.UsesParam())
}

// Build instantiates the template at a parameter value.
func (t *PredicateTemplate) Build(param int64) *engine.PredicateSpec {
	if t == nil {
		return nil
	}
	return &engine.PredicateSpec{
		Kind:      t.Kind,
		Threshold: t.Threshold.Eval(param),
		Modulus:   t.Modulus.Eval(param),
		Residue:   t.Residue.Eval(param),
	}
}

// ProtocolAxis is one entry of the protocol axis. Exactly one of Spec and
// Inline must be set, except in protocol-free bounds sweeps (empty protocol
// axis). Per-entry Kinds, Sizes, Inputs and Predicate override the
// spec-level axes, so ragged grids (different sizes per protocol, as in the
// paper's per-threshold tables) need no separate sweeps.
type ProtocolAxis struct {
	// Spec is a registry spec string, optionally containing the {N}
	// placeholder ("flock:{N}") substituted by each value of the params
	// axis.
	Spec string `json:"spec,omitempty"`
	// Inline is an inline JSON protocol (the protocol.Spec interchange
	// format). Inline protocols take no parameter substitution.
	Inline json.RawMessage `json:"inline,omitempty"`
	// Label names the entry in cell results; defaults to the (substituted)
	// spec string, or "inline" for inline protocols.
	Label string `json:"label,omitempty"`
	// Kinds overrides the spec-level kinds axis for this entry.
	Kinds []engine.Kind `json:"kinds,omitempty"`
	// Sizes overrides the spec-level sizes axis for this entry.
	Sizes []Expr `json:"sizes,omitempty"`
	// Inputs lists explicit input multisets for simulate and cover cells —
	// required for protocols with more than one input variable, where a
	// bare population size is ambiguous. When set, it replaces the sizes
	// axis for those kinds.
	Inputs [][]int64 `json:"inputs,omitempty"`
	// Predicate overrides the spec-level predicate template.
	Predicate *PredicateTemplate `json:"predicate,omitempty"`
}

// Options sets the per-cell execution knobs shared by the whole sweep.
type Options struct {
	// Seed seeds randomized cells; every cell derives its own seed from it
	// (seed + index·2654435769), so cells are decorrelated but the sweep is
	// reproducible.
	Seed uint64 `json:"seed,omitempty"`
	// Runs > 1 aggregates each simulate cell over that many seeds.
	Runs int `json:"runs,omitempty"`
	// MaxSteps bounds simulated interactions per run (0 = simulator
	// default).
	MaxSteps int64 `json:"maxSteps,omitempty"`
	// ExactOracle switches simulate cells to the exact stable-set oracle
	// (computed once per protocol via the engine cache).
	ExactOracle bool `json:"exactOracle,omitempty"`
	// MinSize is the lower population bound of verify cells (default 2);
	// each verify cell checks every input size in [MinSize, size].
	MinSize int64 `json:"minSize,omitempty"`
	// Limit bounds each configuration graph of verify and cover cells
	// (0 = default).
	Limit int `json:"limit,omitempty"`
	// TimeoutMillis bounds each cell's wall-clock time (0 = no per-cell
	// deadline; the sweep context still applies).
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
	// FullResults keeps the heavyweight payload fields (simulation traces
	// and final configurations, certificate witnesses, basis vectors) in
	// cell results. By default they are stripped, keeping a million-cell
	// stream lean; summaries (sizes, verdicts, statistics) always remain.
	FullResults bool `json:"fullResults,omitempty"`
}

// Spec is a declarative scenario sweep: the cartesian grid
// protocols × params × kinds × sizes, with explicit expansion caps. It is
// JSON-round-trippable, so sweeps cross process boundaries (POST /v1/sweep)
// losslessly.
type Spec struct {
	// Name labels the sweep in results and logs.
	Name string `json:"name,omitempty"`
	// Protocols is the protocol axis. It may be empty only when every kind
	// is "bounds": then the params axis supplies the state counts.
	Protocols []ProtocolAxis `json:"protocols,omitempty"`
	// Params is the parameter axis substituted for {N}; empty means the
	// sweep is unparametrised.
	Params []ParamRange `json:"params,omitempty"`
	// Kinds is the analysis-kind axis (at least one, unless every entry
	// overrides it).
	Kinds []engine.Kind `json:"kinds,omitempty"`
	// Sizes is the population-size axis consumed by simulate, verify and
	// cover cells; kinds that analyse the protocol as a whole (stable,
	// basis, saturate, certify-*, bounds) ignore it and produce one cell
	// per protocol and parameter.
	Sizes []Expr `json:"sizes,omitempty"`
	// Predicate is the predicate template of verify cells; protocols from
	// the registry default to the predicate they are known to compute.
	Predicate *PredicateTemplate `json:"predicate,omitempty"`
	// Options are the shared per-cell execution knobs.
	Options Options `json:"options,omitzero"`
	// MaxCells caps the expanded grid (default DefaultMaxCells, ceiling
	// AbsoluteMaxCells). Expansion fails loudly when the cross product
	// exceeds it — a sweep never silently truncates its grid.
	MaxCells int `json:"maxCells,omitempty"`
	// Cells, when non-empty, selects a slice of the expanded grid by cell
	// index: only cells whose index falls inside one of the (inclusive)
	// ranges execute. Indices, per-cell seeds and results are exactly those
	// of the full grid — a sweep split into disjoint ranges and re-merged
	// equals the unsplit sweep cell for cell — so grid indices double as
	// resumable cell IDs, and a cluster coordinator can partition one spec
	// across workers and retry any slice elsewhere.
	Cells []IndexRange `json:"cells,omitempty"`
}

// IndexRange selects the inclusive grid-index range [From, To].
type IndexRange struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// Ranges compresses a set of cell indices (any order, duplicates ignored)
// into the minimal sorted list of maximal inclusive ranges — the Spec.Cells
// form of that selection.
func Ranges(indices []int) []IndexRange {
	rs := make([]IndexRange, len(indices))
	for i, x := range indices {
		rs[i] = IndexRange{From: x, To: x}
	}
	return mergeRanges(rs)
}

// normalizeRanges validates a cells selection and returns it sorted with
// overlapping and adjacent ranges merged (nil for an empty selection).
func normalizeRanges(rs []IndexRange) ([]IndexRange, error) {
	for _, r := range rs {
		switch {
		case r.From < 0:
			return nil, badSpec("cells range [%d, %d] has a negative index", r.From, r.To)
		case r.To < r.From:
			return nil, badSpec("cells range [%d, %d] is inverted", r.From, r.To)
		}
	}
	return mergeRanges(append([]IndexRange(nil), rs...)), nil
}

// mergeRanges sorts rs in place and merges its overlapping and adjacent
// ranges into the minimal list of maximal ones (nil when rs is empty).
func mergeRanges(rs []IndexRange) []IndexRange {
	if len(rs) == 0 {
		return nil
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].From < rs[j].From })
	out := rs[:1]
	for _, r := range rs[1:] {
		if last := &out[len(out)-1]; r.From <= last.To+1 {
			last.To = max(last.To, r.To)
			continue
		}
		out = append(out, r)
	}
	return out
}

// ParseSpec decodes and validates a JSON sweep spec. Unknown fields are
// rejected, so typos in axis names fail loudly instead of silently
// shrinking the grid.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		if errors.Is(err, ErrBadSpec) {
			return Spec{}, err // already a spec error; don't double-wrap
		}
		return Spec{}, badSpec("decoding: %v", err)
	}
	if dec.More() {
		return Spec{}, badSpec("trailing data after spec document")
	}
	// Validate by walking the whole expansion without retaining it, so a
	// near-cap spec does not hold its grid in memory twice.
	if err := s.expand(func(Cell) {}); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Cell is one expanded grid point: the axis coordinates plus the fully
// built engine request.
type Cell struct {
	// Index is the cell's position in expansion order (stable across runs
	// of the same spec).
	Index int `json:"index"`
	// Protocol is the entry label after parameter substitution.
	Protocol string `json:"protocol,omitempty"`
	// Param is the parameter value, when the cell consumed one.
	Param *int64 `json:"param,omitempty"`
	// Size is the population size (sum of the input multiset for explicit
	// inputs); 0 for kinds that ignore the sizes axis.
	Size int64 `json:"size,omitempty"`
	// Kind is the analysis kind.
	Kind engine.Kind `json:"kind"`
	// Request is the engine request the cell executes.
	Request engine.Request `json:"request"`
}

// needsSize reports whether a kind consumes the sizes axis.
func needsSize(k engine.Kind) bool {
	switch k {
	case engine.KindSimulate, engine.KindVerify, engine.KindCover:
		return true
	default:
		return false
	}
}

// Expand materialises the grid into engine requests, in deterministic
// order: protocol entries × params × kinds × sizes. It validates the whole
// spec and enforces the cell caps; it never panics on malformed input.
func (s Spec) Expand() ([]Cell, error) {
	var cells []Cell
	if err := s.expand(func(c Cell) { cells = append(cells, c) }); err != nil {
		return nil, err
	}
	return cells, nil
}

// expand walks the grid, handing each cell to sink. Validation-only
// callers pass a discarding sink and retain nothing.
func (s Spec) expand(sink func(Cell)) error {
	maxCells := s.MaxCells
	switch {
	case maxCells == 0:
		maxCells = DefaultMaxCells
	case maxCells < 0:
		return badSpec("maxCells %d is negative", maxCells)
	case maxCells > AbsoluteMaxCells:
		return badSpec("maxCells %d exceeds the ceiling %d", maxCells, AbsoluteMaxCells)
	}

	var params []int64
	for _, r := range s.Params {
		var err error
		if params, err = r.values(params); err != nil {
			return err
		}
	}
	if err := validKinds(s.Kinds); err != nil {
		return err
	}
	sel, err := normalizeRanges(s.Cells)
	if err != nil {
		return err
	}

	// emit assigns grid indices, enforces the cap, and derives per-cell
	// seeds for randomized kinds (decorrelated but reproducible). Index
	// assignment and seed derivation always walk the full grid; a cells
	// selection only filters what reaches the sink, so a selected slice is
	// cell-identical to its counterpart in the unselected sweep.
	next := 0
	si := 0
	emit := func(c Cell) error {
		if next >= maxCells {
			return capError(maxCells, s.MaxCells)
		}
		c.Index = next
		next++
		switch c.Kind {
		case engine.KindSimulate, engine.KindCertifyChain, engine.KindCertifyLeaderless:
			c.Request.Seed = s.Options.Seed + uint64(c.Index)*seedStride
		}
		if sel != nil {
			for si < len(sel) && sel[si].To < c.Index {
				si++
			}
			if si >= len(sel) || c.Index < sel[si].From {
				return nil
			}
		}
		sink(c)
		return nil
	}

	// Protocol-free sweeps: only bounds cells, one per parameter.
	if len(s.Protocols) == 0 {
		if err := s.expandProtocolFree(params, emit); err != nil {
			return err
		}
		return checkSelection(sel, next)
	}
	for i, entry := range s.Protocols {
		if err := s.expandEntry(i, entry, params, emit); err != nil {
			return err
		}
	}
	if next == 0 {
		return badSpec("grid is empty (no protocols, params, kinds or sizes produce a cell)")
	}
	return checkSelection(sel, next)
}

// checkSelection rejects a cells selection reaching past the grid, so a
// coordinator addressing stale indices fails loudly instead of silently
// running a truncated slice.
func checkSelection(sel []IndexRange, gridSize int) error {
	if len(sel) == 0 {
		return nil
	}
	if last := sel[len(sel)-1].To; last >= gridSize {
		return badSpec("cells selection ends at index %d but the grid has %d cells", last, gridSize)
	}
	return nil
}

// expandProtocolFree expands a sweep with an empty protocol axis: every
// kind must be bounds, and each parameter value becomes a state count.
func (s Spec) expandProtocolFree(params []int64, emit func(Cell) error) error {
	kinds := s.Kinds
	if len(kinds) == 0 {
		kinds = []engine.Kind{engine.KindBounds}
	}
	for _, k := range kinds {
		if k != engine.KindBounds {
			return badSpec("kind %q needs a protocol axis (only bounds sweeps may omit it)", k)
		}
	}
	if len(params) == 0 {
		return badSpec("protocol-free bounds sweep needs a params axis (the state counts)")
	}
	for _, p := range params {
		p := p
		err := emit(Cell{
			Param: &p,
			Kind:  engine.KindBounds,
			Request: engine.Request{
				Kind:          engine.KindBounds,
				States:        p,
				TimeoutMillis: s.Options.TimeoutMillis,
			},
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// expandEntry expands one protocol-axis entry.
func (s Spec) expandEntry(entryIdx int, entry ProtocolAxis, params []int64, emit func(Cell) error) error {
	if entry.Spec != "" && len(entry.Inline) > 0 {
		return badSpec("protocols[%d] sets both spec and inline", entryIdx)
	}
	if entry.Spec == "" && len(entry.Inline) == 0 {
		return badSpec("protocols[%d] sets neither spec nor inline", entryIdx)
	}
	kinds := entry.Kinds
	if len(kinds) == 0 {
		kinds = s.Kinds
	}
	if len(kinds) == 0 {
		return badSpec("protocols[%d] has no kinds (set spec-level kinds or a per-entry override)", entryIdx)
	}
	if err := validKinds(kinds); err != nil {
		return err
	}
	sizes := entry.Sizes
	if len(sizes) == 0 {
		sizes = s.Sizes
	}
	predicate := entry.Predicate
	if predicate == nil {
		predicate = s.Predicate
	}

	usesParam := strings.Contains(entry.Spec, Param) || predicate.UsesParam()
	for _, sz := range sizes {
		usesParam = usesParam || sz.UsesParam()
	}
	entryParams := []*int64{nil}
	switch {
	case usesParam && len(params) == 0:
		return badSpec("protocols[%d] uses %s but the spec has no params axis", entryIdx, Param)
	case usesParam:
		entryParams = entryParams[:0]
		for _, p := range params {
			p := p
			entryParams = append(entryParams, &p)
		}
	}

	for _, param := range entryParams {
		pv := int64(0)
		if param != nil {
			pv = *param
		}
		ref, label, err := entry.resolveRef(pv)
		if err != nil {
			return err
		}
		for _, kind := range kinds {
			cell := Cell{
				Protocol: label,
				Param:    param,
				Kind:     kind,
				Request: engine.Request{
					Kind:          kind,
					Protocol:      ref,
					TimeoutMillis: s.Options.TimeoutMillis,
				},
			}
			if !needsSize(kind) {
				if err := emit(cell); err != nil {
					return err
				}
				continue
			}
			inputs, cellSizes, err := entry.inputsFor(kind, sizes, pv, entryIdx)
			if err != nil {
				return err
			}
			for i := range cellSizes {
				c := cell // fresh copy per size
				c.Size = cellSizes[i]
				switch kind {
				case engine.KindSimulate:
					c.Request.Input = inputs[i]
					c.Request.Runs = s.Options.Runs
					c.Request.MaxSteps = s.Options.MaxSteps
					c.Request.ExactOracle = s.Options.ExactOracle
				case engine.KindCover:
					c.Request.Input = inputs[i]
					c.Request.Limit = s.Options.Limit
				case engine.KindVerify:
					c.Request.Predicate = predicate.Build(pv)
					c.Request.MinSize = s.Options.MinSize
					c.Request.MaxSize = cellSizes[i]
					c.Request.Limit = s.Options.Limit
				}
				if err := emit(c); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// resolveRef builds the protocol reference and display label of an entry at
// a parameter value.
func (e ProtocolAxis) resolveRef(param int64) (engine.ProtocolRef, string, error) {
	if len(e.Inline) > 0 {
		label := e.Label
		if label == "" {
			label = "inline"
		}
		return engine.ProtocolRef{Inline: e.Inline}, label, nil
	}
	spec := strings.ReplaceAll(e.Spec, Param, strconv.FormatInt(param, 10))
	label := e.Label
	if label == "" {
		label = spec
	} else {
		label = strings.ReplaceAll(label, Param, strconv.FormatInt(param, 10))
	}
	return engine.ProtocolRef{Spec: spec}, label, nil
}

// inputsFor resolves the per-cell inputs and sizes of a size-consuming
// kind: explicit input multisets when the entry lists them (simulate and
// cover), else the sizes axis as single-variable inputs.
func (e ProtocolAxis) inputsFor(kind engine.Kind, sizes []Expr, param int64, entryIdx int) (inputs [][]int64, cellSizes []int64, err error) {
	if len(e.Inputs) > 0 && kind != engine.KindVerify {
		for _, in := range e.Inputs {
			var total int64
			for _, v := range in {
				total += v
			}
			inputs = append(inputs, in)
			cellSizes = append(cellSizes, total)
		}
		return inputs, cellSizes, nil
	}
	if len(sizes) == 0 {
		return nil, nil, badSpec("protocols[%d]: kind %q needs a sizes axis (or explicit inputs)", entryIdx, kind)
	}
	for _, sz := range sizes {
		n := sz.Eval(param)
		if n < 2 {
			// Parametric size bands ("{N}-1") can dip below the smallest
			// meaningful population near the axis edge; skip those points
			// rather than failing the whole sweep.
			continue
		}
		if kind == engine.KindVerify {
			inputs = append(inputs, nil)
		} else {
			inputs = append(inputs, []int64{n})
		}
		cellSizes = append(cellSizes, n)
	}
	return inputs, cellSizes, nil
}

// capError reports a grid exceeding its cap (expansion stops counting at
// the cap).
func capError(effective, requested int) error {
	if requested == 0 {
		return badSpec("grid exceeds %d cells (the default cap; set maxCells explicitly, ceiling %d)",
			effective, AbsoluteMaxCells)
	}
	return badSpec("grid exceeds maxCells %d", effective)
}

// validKinds checks every kind against the engine's kind table.
func validKinds(kinds []engine.Kind) error {
	for _, k := range kinds {
		if !k.Valid() {
			return badSpec("unknown kind %q (known: %v)", k, engine.Kinds)
		}
	}
	return nil
}
