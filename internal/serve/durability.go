package serve

import (
	"context"
	"net/http"
	"runtime"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/journal"
	"repro/internal/store"
	"repro/internal/sweep"
)

// handleArtifact serves GET /v1/artifacts/{kind}/{hash}: the CRC-framed
// versioned payload of a completed artifact, for cluster peer fetches.
// On a local miss a coordinator forwards the request to the rendezvous
// owner of the hash — the worker the dispatcher routes that protocol's
// cells to, hence the node most likely to hold the artifact.
func handleArtifact(eng *engine.Engine, opts Options, w http.ResponseWriter, r *http.Request) {
	kind, hash := r.PathValue("kind"), r.PathValue("hash")
	if !slices.Contains(engine.ArtifactKinds, kind) {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown artifact kind " + kind})
		return
	}
	payload, ok := eng.ArtifactBytes(kind, hash)
	if !ok {
		if opts.Cluster != nil {
			if owner, live := opts.Cluster.Owner(hash); live {
				if p, ferr := cluster.FetchArtifact(r.Context(), artifactClient, owner.URL, kind, hash); ferr == nil && p != nil {
					payload, ok = p, true
				}
			}
		}
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "artifact not found"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(store.Encode(payload))
}

// artifactClient performs owner-forwarded artifact fetches; bounded so a
// dead owner cannot stall the endpoint.
var artifactClient = &http.Client{Timeout: 10 * time.Second}

// runSweepJournaled executes a sweep under the durable journal: replayed
// cells are re-emitted verbatim, only the rest run (locally or fanned
// out), every fresh completion is fsync'd before it streams, and the
// summary aggregates the whole grid. Because grid indices and per-cell
// seeds are stable under Cells sub-selection, the merged stream — and its
// canonical form — is byte-identical to an uninterrupted run's.
func runSweepJournaled(ctx context.Context, eng *engine.Engine, opts Options, spec sweep.Spec, j *journal.Sweep, onCell func(sweep.CellResult)) (*sweep.Result, error) {
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if err := j.Start(len(cells)); err != nil {
		return nil, err
	}
	workers := opts.SweepWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	col := sweep.NewCollector(spec.Name, len(cells), workers, true)
	m := sweep.NewMerger(cells, col, func(cr sweep.CellResult) {
		// Journal before streaming, so every cell a client saw is durable.
		// Replayed cells are already journaled and skip straight through;
		// a failed append only costs recomputing that cell on resume.
		if err := j.AppendCell(cr); err != nil {
			opts.RequestLog.Warn("sweep journal append failed", "cell", cr.Index, "error", err)
		}
		onCell(cr)
	})

	replayed := j.Completed()
	seen := make(map[int]bool, len(replayed))
	for _, cr := range replayed {
		m.Add(cr)
		seen[cr.Index] = true
	}
	var remaining []int
	for _, c := range cells {
		if !seen[c.Index] {
			remaining = append(remaining, c.Index)
		}
	}
	if len(replayed) > 0 {
		opts.RequestLog.Info("sweep resumed from journal",
			"sweep", spec.Name, "replayed", len(replayed), "remaining", len(remaining))
	}

	start := time.Now()
	// Ranges(nil) means the full grid, so a fully-replayed sweep must skip
	// execution outright rather than submit an empty selection.
	if len(remaining) > 0 {
		sub := spec
		sub.Cells = sweep.Ranges(remaining)
		feed := func(cr sweep.CellResult) { m.Add(cr) }
		logRange := func(worker string, rs []sweep.IndexRange) {
			if err := j.AppendRange(worker, rs); err != nil {
				opts.RequestLog.Warn("sweep journal range append failed", "error", err)
			}
		}
		if opts.Cluster != nil {
			dopts := opts.ClusterDispatch
			dopts.LocalEngine = eng
			dopts.LocalWorkers = opts.SweepWorkers
			dopts.DiscardCells = true
			dopts.OnCell = feed
			dopts.OnDispatch = logRange
			if dopts.Log == nil {
				dopts.Log = opts.RequestLog
			}
			if _, err := opts.Cluster.Sweep(ctx, sub, dopts); err != nil && ctx.Err() == nil {
				return nil, err
			}
		} else {
			logRange(cluster.LocalWorkerLabel, sub.Cells)
			if _, err := sweep.Run(ctx, eng, sub, sweep.RunOptions{
				Workers:      opts.SweepWorkers,
				DiscardCells: true,
				OnCell:       feed,
			}); err != nil && ctx.Err() == nil {
				return nil, err
			}
		}
	}

	res := col.Finish(time.Since(start))
	if m.Remaining() == 0 {
		if err := j.AppendDone(); err != nil {
			opts.RequestLog.Warn("sweep journal done append failed", "error", err)
		}
	} else if err := ctx.Err(); err != nil {
		res.Cancelled = true
		return res, err
	}
	return res, nil
}
