package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/engine"
	"repro/internal/jsonenc"
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
// statistic, say) appends nothing. The encoder is hand-written, field by
// field in declaration order, so that a streamed row costs no reflection;
// FuzzAppendRow holds it to encoding/json's bytes.
func AppendRow(buf []byte, row StreamRow) []byte {
	b := jsonenc.Buf{B: buf}
	b.String(`{"type":`, row.Type)
	if row.Cell != nil {
		appendCell(&b, `,"cell":`, row.Cell)
	}
	if row.Summary != nil {
		appendSummary(&b, row.Summary)
	}
	if row.Error != "" {
		b.String(`,"error":`, row.Error)
	}
	b.Raw("}\n")
	if b.Err != nil {
		return buf
	}
	return b.B
}

// appendCell appends key and the cell.
func appendCell(b *jsonenc.Buf, key string, c *CellResult) {
	b.Raw(key)
	b.Int(`{"index":`, int64(c.Index))
	if c.Protocol != "" {
		b.String(`,"protocol":`, c.Protocol)
	}
	if c.Param != nil {
		b.Int(`,"param":`, *c.Param)
	}
	if c.Size != 0 {
		b.Int(`,"size":`, c.Size)
	}
	b.String(`,"kind":`, string(c.Kind))
	b.Bool(`,"ok":`, c.OK)
	if c.Error != "" {
		b.String(`,"error":`, c.Error)
	}
	b.Float(`,"elapsedMillis":`, c.ElapsedMillis)
	if c.CacheHit {
		b.Raw(`,"cacheHit":true`)
	}
	if c.Result != nil {
		b.Raw(`,"result":`)
		var err error
		if b.B, err = c.Result.AppendJSON(b.B); err != nil {
			b.Err = err
		}
	}
	b.Raw(`}`)
}

func appendSummary(b *jsonenc.Buf, r *Result) {
	b.Raw(`,"summary":{`)
	if r.Name != "" {
		b.String(`"name":`, r.Name)
		b.Raw(`,`)
	}
	b.Int(`"totalCells":`, int64(r.TotalCells))
	b.Int(`,"completed":`, int64(r.Completed))
	b.Int(`,"failed":`, int64(r.Failed))
	if r.Cancelled {
		b.Raw(`,"cancelled":true`)
	}
	b.Int(`,"workers":`, int64(r.Workers))
	b.Float(`,"wallMillis":`, r.WallMillis)
	if len(r.ByKind) > 0 {
		// encoding/json writes map keys in byte order.
		var arr [16]engine.Kind
		kinds := arr[:0]
		for k := range r.ByKind {
			kinds = append(kinds, k)
		}
		slices.Sort(kinds)
		sep := `,"byKind":{`
		for _, k := range kinds {
			b.String(sep, string(k))
			sep = `,`
			ks := r.ByKind[k]
			if ks == nil {
				b.Raw(`:null`)
				continue
			}
			b.Int(`:{"cells":`, int64(ks.Cells))
			b.Int(`,"ok":`, int64(ks.OK))
			b.Int(`,"errors":`, int64(ks.Errors))
			b.Int(`,"cacheHits":`, int64(ks.CacheHits))
			b.Raw(`}`)
		}
		b.Raw(`}`)
	}
	if s := r.Simulation; s != nil {
		b.Int(`,"simulation":{"cells":`, int64(s.Cells))
		b.Int(`,"converged":`, int64(s.Converged))
		b.Float(`,"interactionsP50":`, s.InteractionsP50)
		b.Float(`,"interactionsP95":`, s.InteractionsP95)
		b.Float(`,"interactionsMax":`, s.InteractionsMax)
		b.Float(`,"parallelP50":`, s.ParallelP50)
		b.Float(`,"parallelP95":`, s.ParallelP95)
		b.Float(`,"parallelMax":`, s.ParallelMax)
		b.Raw(`}`)
	}
	if v := r.Verification; v != nil {
		b.Int(`,"verification":{"cells":`, int64(v.Cells))
		b.Int(`,"allOK":`, int64(v.AllOK))
		b.Int(`,"failures":`, int64(v.Failures))
		b.Raw(`}`)
	}
	if c := r.Certification; c != nil {
		b.Int(`,"certification":{"cells":`, int64(c.Cells))
		b.Int(`,"ok":`, int64(c.OK))
		b.Int(`,"maxA":`, c.MaxA)
		b.Raw(`}`)
	}
	if len(r.Cells) > 0 {
		sep := `,"cells":[`
		for i := range r.Cells {
			appendCell(b, sep, &r.Cells[i])
			sep = `,`
		}
		b.Raw(`]`)
	}
	b.Raw(`}`)
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
