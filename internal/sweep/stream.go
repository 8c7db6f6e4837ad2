package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/engine"
)

// StreamRow is one NDJSON row of a streamed sweep: the POST /v1/sweep
// response, the coordinator↔worker wire format of the cluster dispatcher,
// and a sweep journal's record payload. Type is "cell" for per-cell rows
// (Cell set), "summary" for the final aggregate row (Summary set, its
// Cells field omitted — the stream already carried them), "error" for a
// mid-stream failure (Error set), and "done" for the journal's seal.
type StreamRow struct {
	Type    string      `json:"type"`
	Cell    *CellResult `json:"cell,omitempty"`
	Summary *Result     `json:"summary,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// AppendRow appends row to buf in the one wire form of sweep rows, which
// the stream, the journal and ppsweep -canonical share: encoding/json with
// HTML escaping off, then a newline. A row encoding/json refuses (a NaN
// statistic, say) appends nothing.
func AppendRow(buf []byte, row StreamRow) []byte {
	b := bytes.NewBuffer(buf)
	enc := json.NewEncoder(b)
	enc.SetEscapeHTML(false)
	if enc.Encode(row) != nil {
		return buf
	}
	return b.Bytes()
}

// ReadRows reads a sweep row stream, calling onCell for each cell row in
// order, and returns the summary row's aggregate once r ends — nil if
// none came, which the caller may call a truncation. It stops at the first
// row that does not decode, or at an error row, and returns that error.
func ReadRows(r io.Reader, onCell func(CellResult)) (*Result, error) {
	var res *Result
	for dec := json.NewDecoder(r); ; {
		var row StreamRow
		if err := dec.Decode(&row); err == io.EOF {
			return res, nil
		} else if err != nil {
			return nil, fmt.Errorf("reading stream: %w", err)
		}
		switch {
		case row.Type == "cell" && row.Cell != nil:
			onCell(*row.Cell)
		case row.Type == "summary":
			res = row.Summary
		case row.Type == "error":
			return nil, errors.New(row.Error)
		}
	}
}

// CanonicalCell returns a copy of a cell result with its volatile fields —
// wall-clock timings and cache-hit flags, which legitimately differ between
// runs and between executors, and the fixpoint schedule counters, which
// describe how a stable set was computed rather than what it is — zeroed.
// Everything analysis-determined (verdicts, basis sizes, statistics,
// seed-driven simulation outcomes) is preserved, so two canonical cells are
// byte-identical exactly when the analyses agreed.
func CanonicalCell(cr CellResult) CellResult {
	cr.ElapsedMillis = 0
	cr.CacheHit = false
	if cr.Result != nil {
		r := *cr.Result
		r.ElapsedMillis = 0
		r.CacheHit = false
		if r.Stable != nil {
			s := *r.Stable
			s.Iterations0, s.Iterations1 = 0, 0
			s.Frontier0, s.Frontier1 = 0, 0
			r.Stable = &s
		}
		cr.Result = &r
	}
	return cr
}

// CanonicalResult returns a copy of an aggregate result with its volatile
// fields zeroed: wall-clock time, worker-pool size, cache-hit counters, and
// the retained cells (the canonical stream already carries them as rows).
// A sweep fanned out across a cluster and the same sweep run in one process
// produce byte-identical canonical results.
func CanonicalResult(res *Result) *Result {
	if res == nil {
		return nil
	}
	c := *res
	c.WallMillis = 0
	c.Workers = 0
	c.Cells = nil
	c.ByKind = make(map[engine.Kind]*KindStats, len(res.ByKind))
	for k, ks := range res.ByKind {
		cp := *ks
		cp.CacheHits = 0
		c.ByKind[k] = &cp
	}
	return &c
}
