package sweep

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
)

// seedStride decorrelates per-cell seeds (the golden-ratio increment also
// used by the simulator's multi-run estimates).
const seedStride = 0x9e3779b9

// CellResult is the outcome of one executed cell: the cell's coordinates,
// a success flag, and the (condensed) engine result.
type CellResult struct {
	// Index is the cell's grid position (expansion order); results stream
	// in completion order, so indices identify cells across the two.
	Index int `json:"index"`
	// Protocol, Param, Size and Kind are the cell coordinates (see Cell).
	Protocol string      `json:"protocol,omitempty"`
	Param    *int64      `json:"param,omitempty"`
	Size     int64       `json:"size,omitempty"`
	Kind     engine.Kind `json:"kind"`
	// OK reports whether the cell's request succeeded.
	OK bool `json:"ok"`
	// Error is the failure message of a failed cell.
	Error string `json:"error,omitempty"`
	// ElapsedMillis is the cell's wall-clock execution time.
	ElapsedMillis float64 `json:"elapsedMillis"`
	// CacheHit reports whether the cell was served from memoized
	// per-protocol artifacts.
	CacheHit bool `json:"cacheHit,omitempty"`
	// Result is the engine result of a successful cell. Unless the spec
	// sets options.fullResults, heavyweight payloads (traces, final
	// configurations, certificate witnesses, basis vectors) are stripped.
	Result *engine.Result `json:"result,omitempty"`
}

// KindStats aggregates the cells of one analysis kind.
type KindStats struct {
	Cells     int `json:"cells"`
	OK        int `json:"ok"`
	Errors    int `json:"errors"`
	CacheHits int `json:"cacheHits"`
}

// SimStats aggregates convergence across the sweep's completed simulate
// cells: percentiles of interactions and of parallel time (single-run
// cells contribute their run; multi-run cells the mean over their
// converged replicas, taken from the replica executor's aggregate).
type SimStats struct {
	Cells     int `json:"cells"`
	Converged int `json:"converged"`
	// InteractionsP50/P95/Max summarise convergence interactions over
	// converged cells.
	InteractionsP50 float64 `json:"interactionsP50"`
	InteractionsP95 float64 `json:"interactionsP95"`
	InteractionsMax float64 `json:"interactionsMax"`
	// ParallelP50/P95/Max summarise parallel time over converged cells.
	ParallelP50 float64 `json:"parallelP50"`
	ParallelP95 float64 `json:"parallelP95"`
	ParallelMax float64 `json:"parallelMax"`
}

// VerifyStats aggregates the sweep's completed verify cells.
type VerifyStats struct {
	Cells int `json:"cells"`
	// AllOK counts cells whose whole verified range passed.
	AllOK int `json:"allOK"`
	// Failures is the total failing inputs across cells.
	Failures int `json:"failures"`
}

// CertifyStats aggregates the sweep's completed certify cells.
type CertifyStats struct {
	Cells int `json:"cells"`
	OK    int `json:"ok"`
	// MaxA is the largest certified threshold bound A across cells.
	MaxA int64 `json:"maxA"`
}

// Result aggregates a whole sweep run.
type Result struct {
	// Name echoes the spec name.
	Name string `json:"name,omitempty"`
	// TotalCells is the expanded grid size; Completed counts cells that
	// ran to an outcome (success or error); Failed counts the errors.
	// Completed < TotalCells means the sweep was cancelled mid-flight.
	TotalCells int `json:"totalCells"`
	Completed  int `json:"completed"`
	Failed     int `json:"failed"`
	// Cancelled reports that the context ended before the grid did.
	Cancelled bool `json:"cancelled,omitempty"`
	// Workers is the worker-pool size the sweep ran with.
	Workers int `json:"workers"`
	// WallMillis is the end-to-end wall-clock time of the sweep.
	WallMillis float64 `json:"wallMillis"`
	// ByKind aggregates per analysis kind.
	ByKind map[engine.Kind]*KindStats `json:"byKind,omitempty"`
	// Simulation, Verification and Certification aggregate the matching
	// kinds (nil when the sweep had no such cells).
	Simulation    *SimStats     `json:"simulation,omitempty"`
	Verification  *VerifyStats  `json:"verification,omitempty"`
	Certification *CertifyStats `json:"certification,omitempty"`
	// Cells holds every completed cell result in grid (index) order.
	Cells []CellResult `json:"cells,omitempty"`
}

// RunOptions configures one sweep execution.
type RunOptions struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS). Each worker feeds
	// the shared engine, whose execution-slot semaphore still bounds the
	// CPU actually burnt, so oversizing the pool queues rather than
	// thrashes.
	Workers int
	// OnCell, when set, observes every completed cell in completion order.
	// Calls are serialized; a slow observer backpressures the sweep (this
	// is what lets an HTTP client's streaming pace bound server work).
	OnCell func(CellResult)
	// DiscardCells leaves Result.Cells empty; the aggregates still cover
	// every cell. Streaming consumers that already saw each cell via
	// OnCell set this to keep memory flat on very large grids.
	DiscardCells bool
}

// Run expands the spec and executes every cell on a worker pool against
// eng. It returns the aggregated result; on cancellation it returns the
// partial result together with the context's error, after in-flight cells
// have been interrupted (the engine's cooperative cancellation) and
// remaining cells skipped.
func Run(ctx context.Context, eng *engine.Engine, spec Spec, opts RunOptions) (*Result, error) {
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	start := time.Now()
	jobs := make(chan []Cell)
	results := make(chan CellResult)

	// Feeder: hands out family chains — cells of one protocol family as one
	// sequential unit, everything else as singletons — and stops as soon as
	// the context ends.
	go func() {
		defer close(jobs)
		for _, chain := range familyChains(cells) {
			select {
			case jobs <- chain:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chain := range jobs {
				for _, c := range chain {
					if ctx.Err() != nil {
						return
					}
					cr := RunCell(ctx, eng, spec, c)
					if Interrupted(ctx, cr) {
						return
					}
					results <- cr
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	col := NewCollector(spec.Name, len(cells), workers, opts.DiscardCells)
	for cr := range results {
		col.Add(cr)
		if opts.OnCell != nil {
			opts.OnCell(cr)
		}
	}
	res := col.Finish(time.Since(start))
	if err := ctx.Err(); err != nil && res.Completed < res.TotalCells {
		res.Cancelled = true
		return res, err
	}
	return res, nil
}

// familyChains partitions expanded cells into execution chains: cells
// declaring the same protocol family form one chain in grid order — which,
// by expansion order, is ascending parameter order — and every other cell
// is a singleton chain. A chain executes sequentially on one worker, so
// each family member's artifacts are complete before the next parameter
// starts and the engine's delta path always finds its nearest neighbor
// warm. Chains are ordered by first appearance, keeping the schedule
// deterministic; results still stream in completion order and aggregate
// identically to per-cell scheduling.
func familyChains(cells []Cell) [][]Cell {
	var chains [][]Cell
	byFamily := make(map[string]int)
	for _, c := range cells {
		fam := c.Request.Family
		if fam == "" {
			chains = append(chains, []Cell{c})
			continue
		}
		ci, ok := byFamily[fam]
		if !ok {
			ci = len(chains)
			byFamily[fam] = ci
			chains = append(chains, nil)
		}
		chains[ci] = append(chains[ci], c)
	}
	return chains
}

// Collector folds completed cells into an aggregate Result incrementally,
// in any arrival order: the aggregates are order-independent, and Finish
// sorts retained cells back into grid order. It is the single aggregation
// path — the local executor (Run) and the cluster coordinator's merger both
// fold through it, which is what makes a fanned-out sweep's summary equal
// the single-process one. Not safe for concurrent use; serialize Add calls.
type Collector struct {
	res     *Result
	discard bool
	// Percentile sources are collected incrementally, so discarding cells
	// keeps memory flat without losing the aggregates.
	interactions, parallel []float64
}

// NewCollector starts an aggregate over a grid of totalCells. discard
// leaves Result.Cells empty (for consumers that stream cells elsewhere).
func NewCollector(name string, totalCells, workers int, discard bool) *Collector {
	return &Collector{
		res: &Result{
			Name:       name,
			TotalCells: totalCells,
			Workers:    workers,
			ByKind:     make(map[engine.Kind]*KindStats),
		},
		discard: discard,
	}
}

// Add folds one completed cell into the aggregate.
func (col *Collector) Add(cr CellResult) {
	col.res.record(cr, col.discard)
	if s := simOf(cr); s != nil {
		switch {
		case s.Estimate != nil:
			// Multi-run cells execute on the replica executor
			// (sim.RunReplicas via the engine); its aggregate carries
			// the per-run means that feed both percentile sources.
			if s.Estimate.Converged > 0 {
				col.parallel = append(col.parallel, s.Estimate.MeanParallel)
				col.interactions = append(col.interactions, s.Estimate.MeanInteractions)
			}
		case s.Converged:
			col.interactions = append(col.interactions, float64(s.Interactions))
			col.parallel = append(col.parallel, s.ParallelTime)
		}
	}
}

// Completed reports how many cells have been folded in so far.
func (col *Collector) Completed() int { return col.res.Completed }

// Finish seals the aggregate: cells sort back into grid order and the
// percentile statistics are computed. The collector must not be used again.
func (col *Collector) Finish(wall time.Duration) *Result {
	col.res.finish(wall, col.interactions, col.parallel)
	return col.res
}

// RunCell executes one expanded cell against eng and condenses its outcome
// — the single-cell unit of work behind Run, exported so a cluster
// coordinator's local fallback executes cells identically to a worker.
func RunCell(ctx context.Context, eng *engine.Engine, spec Spec, c Cell) CellResult {
	cr := CellResult{
		Index:    c.Index,
		Protocol: c.Protocol,
		Param:    c.Param,
		Size:     c.Size,
		Kind:     c.Kind,
	}
	cellStart := time.Now()
	r, err := eng.Do(ctx, c.Request)
	cr.ElapsedMillis = float64(time.Since(cellStart)) / float64(time.Millisecond)
	if err != nil {
		cr.Error = err.Error()
		return cr
	}
	cr.OK = true
	cr.CacheHit = r.CacheHit
	cr.ElapsedMillis = r.ElapsedMillis
	cr.Result = condense(r, spec.Options.FullResults)
	return cr
}

// Interrupted reports whether cr failed because the sweep's own context
// ended mid-cell. Such a result is not the cell's outcome: executors drop
// it, so the cell stays unrun — skipped by a cancelled sweep, recomputed
// by a journaled one on resume — instead of being recorded as a failure.
func Interrupted(ctx context.Context, cr CellResult) bool {
	return !cr.OK && ctx.Err() != nil
}

// condense strips the heavyweight payload fields from a cell's engine
// result unless full results were requested, keeping streamed rows lean.
func condense(r *engine.Result, full bool) *engine.Result {
	if full || r == nil {
		return r
	}
	c := *r
	if c.Simulation != nil {
		s := *c.Simulation
		s.Trace = nil
		s.Final = nil
		s.FinalFormatted = ""
		c.Simulation = &s
	}
	if c.Certificate != nil {
		cert := *c.Certificate
		cert.Chain = nil
		cert.Leaderless = nil
		c.Certificate = &cert
	}
	if c.Basis != nil {
		b := *c.Basis
		b.Basis = nil
		c.Basis = &b
	}
	return &c
}

// simOf returns the simulation payload of a successful simulate cell.
func simOf(cr CellResult) *engine.SimulationResult {
	if !cr.OK || cr.Result == nil {
		return nil
	}
	return cr.Result.Simulation
}

// record folds one cell outcome into the aggregates.
func (res *Result) record(cr CellResult, discard bool) {
	res.Completed++
	ks := res.ByKind[cr.Kind]
	if ks == nil {
		ks = &KindStats{}
		res.ByKind[cr.Kind] = ks
	}
	ks.Cells++
	if cr.CacheHit {
		ks.CacheHits++
	}
	if !cr.OK {
		res.Failed++
		ks.Errors++
	} else {
		ks.OK++
	}
	if !discard {
		res.Cells = append(res.Cells, cr)
	}
	if !cr.OK || cr.Result == nil {
		return
	}
	switch {
	case cr.Result.Simulation != nil:
		if res.Simulation == nil {
			res.Simulation = &SimStats{}
		}
		res.Simulation.Cells++
		s := cr.Result.Simulation
		if s.Converged {
			res.Simulation.Converged++
		}
	case cr.Result.Verification != nil:
		if res.Verification == nil {
			res.Verification = &VerifyStats{}
		}
		res.Verification.Cells++
		if cr.Result.Verification.AllOK {
			res.Verification.AllOK++
		}
		res.Verification.Failures += len(cr.Result.Verification.Failures)
	case cr.Result.Certificate != nil:
		if res.Certification == nil {
			res.Certification = &CertifyStats{}
		}
		res.Certification.Cells++
		res.Certification.OK++
		if a := cr.Result.Certificate.A; a > res.Certification.MaxA {
			res.Certification.MaxA = a
		}
	}
}

// finish sorts the cells back into grid order and computes the percentile
// aggregates from the incrementally collected samples.
func (res *Result) finish(wall time.Duration, interactions, parallel []float64) {
	res.WallMillis = float64(wall) / float64(time.Millisecond)
	sort.Slice(res.Cells, func(i, j int) bool { return res.Cells[i].Index < res.Cells[j].Index })
	if res.Simulation == nil {
		return
	}
	sort.Float64s(interactions)
	sort.Float64s(parallel)
	res.Simulation.InteractionsP50 = quantile(interactions, 0.5)
	res.Simulation.InteractionsP95 = quantile(interactions, 0.95)
	res.Simulation.InteractionsMax = quantile(interactions, 1)
	res.Simulation.ParallelP50 = quantile(parallel, 0.5)
	res.Simulation.ParallelP95 = quantile(parallel, 0.95)
	res.Simulation.ParallelMax = quantile(parallel, 1)
}

// quantile interpolates the q-quantile of a sorted sample (0 if empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
