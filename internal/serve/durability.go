package serve

import (
	"context"

	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/sweep"
)

// executor is the sweep executor of this handler: the coordinator's
// dispatcher under Cluster, else the local pool.
func (o Options) executor(eng *engine.Engine) sweep.Executor {
	if o.Cluster == nil {
		return sweep.Pool{Engine: eng, Workers: o.SweepWorkers}
	}
	d := o.ClusterDispatch
	d.LocalEngine = eng
	d.LocalWorkers = o.SweepWorkers
	if d.Log == nil {
		d.Log = o.RequestLog
	}
	return o.Cluster.Executor(d)
}

// runSweep runs one /v1/sweep through the sweep pipeline on the handler's
// executor, encoding each cell's row once and handing it to writeCell in
// grid order. Under a journal (j non-nil) the journal supplies the replay
// — replayed cells re-emit verbatim, only the rest execute — journals each
// row's bytes, fsync'd, before it streams, and is sealed once the grid
// completes. Grid indices and per-cell seeds are stable under
// sub-selection, so a resumed stream's canonical form is byte-identical.
func runSweep(ctx context.Context, eng *engine.Engine, opts Options, spec sweep.Spec, j *journal.Sweep, writeCell func(row []byte)) (*sweep.Result, error) {
	var replayed []sweep.CellResult
	if j != nil {
		replayed = j.Completed()
		if len(replayed) > 0 {
			opts.RequestLog.Info("sweep resumed from journal", "sweep", spec.Name, "replayed", len(replayed))
		}
	}
	var row []byte
	// DiscardCells keeps server memory flat on huge grids: each cell was
	// already streamed, so the summary row carries aggregates only.
	hooks := sweep.Hooks{DiscardCells: true, OnCell: func(cr sweep.CellResult) {
		row = sweep.AppendRow(row[:0], sweep.StreamRow{Type: "cell", Cell: &cr})
		// Journal before streaming, so every cell a client saw is durable.
		// Replayed cells are already journaled and skip straight through;
		// a failed append only costs recomputing that cell on resume.
		if j != nil {
			if err := j.AppendCell(cr.Index, row); err != nil {
				opts.RequestLog.Warn("sweep journal append failed", "cell", cr.Index, "error", err)
			}
		}
		writeCell(row)
	}}
	res, err := sweep.Pipeline(ctx, spec, opts.executor(eng), replayed, hooks)
	if j != nil && err == nil && res.Completed == res.TotalCells {
		if err := j.AppendDone(); err != nil {
			opts.RequestLog.Warn("sweep journal done append failed", "error", err)
		}
	}
	return res, err
}
