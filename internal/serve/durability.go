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
// executor, streaming cells to onCell in grid order. Under a journal (j
// non-nil) the journal supplies the replay — replayed cells re-emit
// verbatim and only the rest execute — fsyncs every cell before it
// streams, and is sealed once the grid completes. Because grid indices
// and per-cell seeds are stable under sub-selection, a resumed stream —
// and its canonical form — is byte-identical to an uninterrupted run's.
func runSweep(ctx context.Context, eng *engine.Engine, opts Options, spec sweep.Spec, j *journal.Sweep, onCell func(sweep.CellResult)) (*sweep.Result, error) {
	// DiscardCells keeps server memory flat on huge grids: each cell was
	// already streamed, so the summary row carries aggregates only.
	hooks := sweep.Hooks{OnCell: onCell, DiscardCells: true}
	var replayed []sweep.CellResult
	if j != nil {
		replayed = j.Completed()
		if len(replayed) > 0 {
			opts.RequestLog.Info("sweep resumed from journal", "sweep", spec.Name, "replayed", len(replayed))
		}
		hooks.OnCell = func(cr sweep.CellResult) {
			// Journal before streaming, so every cell a client saw is
			// durable. Replayed cells are already journaled and skip
			// straight through; a failed append only costs recomputing
			// that cell on resume.
			if err := j.AppendCell(cr); err != nil {
				opts.RequestLog.Warn("sweep journal append failed", "cell", cr.Index, "error", err)
			}
			onCell(cr)
		}
	}
	res, err := sweep.Pipeline(ctx, spec, opts.executor(eng), replayed, hooks)
	if j != nil && err == nil && res.Completed == res.TotalCells {
		if err := j.AppendDone(); err != nil {
			opts.RequestLog.Warn("sweep journal done append failed", "error", err)
		}
	}
	return res, err
}
